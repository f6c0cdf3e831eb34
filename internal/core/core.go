// Package core is the front door to the paper's primary contribution: the
// GR-tree access-method DataBlade for now-relative bitemporal data.
//
// The implementation lives in focused packages; this package re-exports the
// public surface a downstream user starts from and documents how the pieces
// fit:
//
//   - temporal   — the bitemporal data model: 4TS time extents with the
//     variables UC and NOW, the six cases of Figure 2, and the
//     rectangle/stair-shape region algebra of Section 3;
//   - grtree     — the GR-tree itself: a time-parameterised R*-tree whose
//     bounding regions grow with the current time, carrying the
//     "Rectangle" and "Hidden" flags — the region algebra run on rtree,
//     the R* skeleton it shares with the rstar baseline;
//   - grtblade   — the DataBlade: the opaque type GRT_TimeExtent_t, the
//     grt_* purpose functions, the operator class, and the
//     registration script (Sections 4–6);
//   - engine     — the extensible server the blade plugs into (the Informix
//     Dynamic Server stand-in);
//   - rstblade   — the R*-tree baseline blade with UC/NOW ground
//     substitution, for comparison.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
//	e, _ := engine.Open(engine.Options{Clock: clock})
//	grtblade.Register(e)
//	s := e.NewSession()
//	s.Exec(`CREATE SBSPACE spc`)
//	s.Exec(`CREATE TABLE Employees (Name VARCHAR(32), Time_Extent GRT_TimeExtent_t)`)
//	s.Exec(`CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am IN spc`)
//	s.Exec(`INSERT INTO Employees VALUES ('Jane', '5/97, UC, 5/97, NOW')`)
//	s.Exec(`SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')`)
package core

import (
	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/temporal"
)

// Re-exported temporal model types.
type (
	// Instant is one chronon (a day) on the time line; the variables UC and
	// NOW are special instants.
	Instant = chronon.Instant
	// Extent is a four-timestamp bitemporal time extent (Section 2).
	Extent = temporal.Extent
	// Region is a possibly growing bitemporal region with the Rectangle and
	// Hidden flags (Section 3).
	Region = temporal.Region
)

// Re-exported temporal variables.
const (
	// UC is the "until changed" transaction-time variable.
	UC = chronon.UC
	// NOW is the current-time valid-time variable.
	NOW = chronon.NOW
)

// Re-exported index types.
type (
	// Tree is the GR-tree.
	Tree = grtree.Tree
	// TreeConfig tunes a GR-tree.
	TreeConfig = grtree.Config
	// Predicate is a search qualification (Overlaps/Equal/Contains/
	// ContainedIn plus a query extent).
	Predicate = grtree.Predicate
	// EngineOptions configures OpenEngine.
	EngineOptions = engine.Options
)

// Engine/blade entry points.
var (
	// OpenEngine opens a database engine (the Informix stand-in).
	OpenEngine = engine.Open
	// RegisterGRTreeBlade installs the GR-tree DataBlade into an engine.
	RegisterGRTreeBlade = grtblade.Register
	// RegisterTypes registers the blade's opaque types only (pass as
	// engine.Options.Types when reopening a persistent database).
	RegisterTypes = grtblade.RegisterTypes
)

// NewVirtualClock returns a manually driven clock; now-relative regions
// grow as it advances.
var NewVirtualClock = chronon.NewVirtualClock

// ParseInstant parses a timestamp ("3/97", "12/10/95", "1997-05-14", "UC",
// "NOW").
var ParseInstant = chronon.Parse

// ParseExtent parses a four-timestamp extent literal
// ("12/10/95, UC, 12/10/95, NOW").
var ParseExtent = temporal.ParseExtent
