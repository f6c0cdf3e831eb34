// Package grtree implements the GR-tree of [BJSS98] as summarised in
// Section 3 of the paper: an R*-tree-based index for now-relative bitemporal
// data. Node entries carry four timestamps in which the variables UC and NOW
// may appear, plus the "Rectangle" and "Hidden" flags; minimum bounding
// regions are rectangles or stair-shapes that grow as time passes; and the
// insertion algorithms are time-parameterised R* algorithms.
//
// The R* skeleton itself lives in package rtree; this package supplies the
// region algebra it runs on (bounds via temporal.Bound, scoring at the
// time-parameter horizon, the Rect/Hidden flags codec), the strategy
// predicates, the deletion policies, dead-space sampling and Dump.
//
// The tree exposes exactly the object model of the paper's Appendix A: a
// Tree with insert, delete, and search methods, where search creates a
// Cursor storing the query predicate and tree-traversal information, and
// qualifying entries are retrieved by calling the Cursor's Next method. The
// deletion/condense/cursor-restart interplay of Section 5.5 is reproduced,
// with the paper's compromise (restart the scan only when the tree is
// actually condensed) as the default policy.
package grtree

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// Payload is the opaque value carried by a leaf entry: the rowid of the
// indexed tuple ("a pointer to the actual bitemporal data stored in the
// database", Section 3).
type Payload uint64

type (
	// Entry is one node entry: a (possibly growing) bitemporal region as
	// its Key plus either a child-node pointer (internal nodes) or a payload
	// (leaves) as its Ref.
	Entry = rtree.Entry[temporal.Region]
	// Cursor iterates a search's qualifying entries (Appendix A).
	Cursor = rtree.Cursor[temporal.Region, ctx]
	// ParallelScan is a root fan-out partitioning of a search.
	ParallelScan = rtree.ParallelScan[temporal.Region, ctx]
	// LevelStats aggregates one tree level (level 0 = leaves).
	LevelStats = rtree.LevelStats
	// DeletePolicy selects the Section 5.5 deletion strategy.
	DeletePolicy = rtree.DeletePolicy
)

// The Section 5.5 deletion policies. RestartOnCondense, the paper's
// compromise, is the default: scanning restarts only when the tree is
// actually condensed.
const (
	RestartOnCondense = rtree.RestartOnCondense
	RestartAlways     = rtree.RestartAlways
	NoCondense        = rtree.NoCondense
)

// Config tunes a GR-tree: the bounding-region policy (time parameter,
// hidden bounds) plus the R* parameters and the Section 5.5 DeletePolicy.
type Config struct {
	Bound temporal.BoundPolicy
	rtree.Config
}

// DefaultConfig mirrors the prototype: R* parameters with the default
// bounding policy.
func DefaultConfig() Config {
	return Config{
		Bound:  temporal.DefaultBoundPolicy,
		Config: rtree.Config{MaxEntries: Capacity, MinFillPct: 40, ReinsertPct: 30},
	}
}

func (c Config) split() (regions, rtree.Config) {
	if c.Bound.TimeParam <= 0 {
		c.Bound = temporal.DefaultBoundPolicy
	}
	return regions{c.Bound}, c.Config
}

// Tree is a GR-tree over a node store: the shared R* core running on the
// region algebra. Mutating methods are not safe for concurrent use; the
// engine serialises access through the sbspace large-object locks (Section
// 5.3), exactly as the paper's DataBlade had to.
type Tree struct {
	*rtree.Tree[temporal.Region, ctx]
	alg regions
}

// Create initialises a new, empty GR-tree in the store.
func Create(store nodestore.Store, cfg Config) (*Tree, error) {
	alg, core := cfg.split()
	t, err := rtree.Create(store, alg, format, core)
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: t, alg: alg}, nil
}

// Open loads an existing GR-tree from the store.
func Open(store nodestore.Store, cfg Config) (*Tree, error) {
	alg, core := cfg.split()
	t, err := rtree.Open(store, alg, format, core)
	if err != nil {
		return nil, err
	}
	return &Tree{Tree: t, alg: alg}, nil
}

// at is the key context of an operation at current time ct: bounds are
// computed at ct and scored at the time-parameter horizon.
func (t *Tree) at(ct chronon.Instant) ctx {
	return ctx{ct: ct, horizon: ct + chronon.Instant(t.alg.pol.TimeParam)}
}

// Insert adds an extent with its payload as of current time ct. The extent
// must be one of the six valid combinations (Figure 2); the caller enforces
// the stricter insertion constraints of Section 2 (grt_insert receives rows
// the server already accepted).
func (t *Tree) Insert(ext temporal.Extent, payload Payload, ct chronon.Instant) error {
	if !ext.Valid() {
		return fmt.Errorf("grtree: invalid extent %v", ext)
	}
	return t.Tree.Insert(ext.Region(), uint64(payload), t.at(ct))
}

// Delete removes the leaf entry holding exactly this extent and payload as
// of current time ct, reporting whether it was removed and whether the tree
// condensed (grt_delete's cursor-reset signal, Section 5.5).
func (t *Tree) Delete(ext temporal.Extent, payload Payload, ct chronon.Instant) (removed, condensed bool, err error) {
	return t.Tree.Delete(ext.Region(), uint64(payload), t.at(ct))
}

// DeleteWhere removes every leaf entry matching the predicate, returning
// how many were removed. It mirrors the engine's deletion procedure
// (Section 5.5): scan with a cursor, delete each qualifying entry, and reset
// the scan when the tree condenses. The cursor restart count is returned
// for experiment P4.
func (t *Tree) DeleteWhere(pred Predicate, ct chronon.Instant) (removed int, restarts int, err error) {
	cur, err := t.Search(pred, ct)
	if err != nil {
		return 0, 0, err
	}
	for {
		e, ok, err := cur.Next()
		if err != nil || !ok {
			return removed, cur.Restarts(), err
		}
		ok, _, err = t.Tree.Delete(e.Key, e.Ref, t.at(ct))
		if err != nil {
			return removed, cur.Restarts(), err
		}
		if ok {
			removed++
		}
	}
}

// Search creates a cursor for the predicate as of current time ct
// (Tree.search() of Appendix A).
func (t *Tree) Search(pred Predicate, ct chronon.Instant) (*Cursor, error) {
	if !pred.Query.Valid() {
		return nil, fmt.Errorf("grtree: invalid query extent %v", pred.Query)
	}
	return t.Tree.Search(pred.at(ct)), nil
}

// SearchMatcher creates a cursor over an arbitrary matcher (compound
// qualifications).
func (t *Tree) SearchMatcher(m Matcher, ct chronon.Instant) *Cursor {
	return t.Tree.Search(&atTime{m, ct})
}

// SearchAll runs the predicate to completion and returns the payloads
// (convenience for tests and benchmarks).
func (t *Tree) SearchAll(pred Predicate, ct chronon.Instant) ([]Payload, error) {
	cur, err := t.Search(pred, ct)
	if err != nil {
		return nil, err
	}
	return rtree.Collect[Payload](cur)
}

// ParallelScan offers the matcher a root fan-out partitioning at ct; nil
// (no error) declines when a serial scan is at least as good.
func (t *Tree) ParallelScan(m Matcher, ct chronon.Instant, degree int) (*ParallelScan, error) {
	return t.Tree.ParallelScan(&atTime{m, ct}, degree)
}

// BulkItem is one (extent, payload) pair for bulk loading.
type BulkItem struct {
	Extent  temporal.Extent
	Payload Payload
}

// BulkLoad builds the tree from scratch at ct using sort-tile-recursive
// packing (the "bulk loading algorithm" Section 5.5 recommends for
// vacuuming: drop the index and recreate it in one pass). The tree must be
// empty.
func (t *Tree) BulkLoad(items []BulkItem, ct chronon.Instant) error {
	entries := make([]Entry, len(items))
	for i, it := range items {
		if !it.Extent.Valid() {
			return fmt.Errorf("grtree: bulk item %d has invalid extent %v", i, it.Extent)
		}
		entries[i] = Entry{Key: it.Extent.Region(), Ref: uint64(it.Payload)}
	}
	return t.Tree.BulkLoad(entries, t.at(ct))
}

// AggCount counts the leaf entries satisfying pred at ct without visiting
// tuples (am_aggregate); ok is false when the tree changed structurally.
// A subtree whose bound the query contains is counted whole for Overlaps and
// ContainedIn (leaf ⊆ bound ⊆ query ⇒ leaf inside, hence overlapping, the
// query); Equal and Contains carry no such implication.
func (t *Tree) AggCount(pred Predicate, ct chronon.Instant) (int64, bool, error) {
	if !pred.Query.Valid() {
		return 0, false, nil
	}
	coverable := pred.Op == OpOverlaps || pred.Op == OpContainedIn
	m := pred.at(ct)
	return t.Tree.AggCount(m, func(bound temporal.Region) bool {
		return coverable && m.query.Contains(bound, ct)
	})
}

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf region under the raw lexicographic key. found is false when
// no entry qualifies; ok is false when the tree changed structurally.
func (t *Tree) AggExtreme(pred Predicate, ct chronon.Instant, wantMax bool) (temporal.Region, bool, bool, error) {
	if !pred.Query.Valid() {
		return temporal.Region{}, false, false, nil
	}
	return t.Tree.AggExtreme(pred.at(ct), wantMax)
}

// Check validates the tree's structural invariants at ct (am_check); a
// child region must stay covered by its parent entry now and in the future.
func (t *Tree) Check(ct chronon.Instant) error {
	return t.Tree.Check(t.at(ct))
}
