// Package grtblade is the GR-tree DataBlade the paper describes: the opaque
// data type GRT_TimeExtent_t with its type support functions (Section 6.3),
// the grt_* access-method purpose functions (Appendix A, Table 5), the
// strategy functions Overlaps/Equal/Contains/ContainedIn and support
// functions GRT_Union/GRT_Size/GRT_Inter (Section 5.2), and the registration
// SQL that a BladeManager-style installer runs (Sections 4 and 6.1).
//
// Design choices follow the paper:
//
//   - the whole time extent is one column of one opaque type, because the
//     qualification descriptor only accommodates single-column predicates
//     (Section 5.1);
//   - functions operating on internal-node regions are hard-coded — the
//     purpose functions call the grtree package directly rather than
//     resolving UDRs, trading operator-class extensibility for simpler and
//     faster code (Section 5.2; the rstblade takes the dynamic route, and
//     experiment P5 measures the difference);
//   - the index lives in one sbspace large object by default (Section 5.3),
//     with per-node and per-subtree placements available as index
//     parameters for the P3 ablation;
//   - the current time is constant per transaction, captured at the first
//     grt_open and kept in session named memory, freed by a transaction-end
//     callback (Section 5.4); 'timepolicy=statement' switches to
//     per-statement time;
//   - deletions restart the scan only when the tree actually condenses
//     (Section 5.5), with the alternatives as parameters for P4.
package grtblade

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/blades/treeblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/temporal"
	"repro/internal/types"
)

// TypeName is the opaque type's registered name.
const TypeName = "GRT_TimeExtent_t"

// LibraryPath is the "shared object" path used in EXTERNAL NAME clauses.
const LibraryPath = "usr/functions/grtree.bld"

// AmName is the access method registered by the blade.
const AmName = "grtree_am"

// extent internal structure: 4 big-endian int64 timestamps (32 bytes).
const extentSize = 32

// EncodeExtent serialises a time extent to the opaque internal structure.
func EncodeExtent(e temporal.Extent) []byte {
	buf := make([]byte, extentSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(e.TTBegin))
	binary.BigEndian.PutUint64(buf[8:16], uint64(e.TTEnd))
	binary.BigEndian.PutUint64(buf[16:24], uint64(e.VTBegin))
	binary.BigEndian.PutUint64(buf[24:32], uint64(e.VTEnd))
	return buf
}

// DecodeExtent deserialises the opaque internal structure.
func DecodeExtent(data []byte) (temporal.Extent, error) {
	if len(data) != extentSize {
		return temporal.Extent{}, fmt.Errorf("grtblade: extent value has %d bytes, want %d", len(data), extentSize)
	}
	return temporal.Extent{
		TTBegin: chronon.Instant(binary.BigEndian.Uint64(data[0:8])),
		TTEnd:   chronon.Instant(binary.BigEndian.Uint64(data[8:16])),
		VTBegin: chronon.Instant(binary.BigEndian.Uint64(data[16:24])),
		VTEnd:   chronon.Instant(binary.BigEndian.Uint64(data[24:32])),
	}, nil
}

// wire form: 4-byte version tag + internal structure (the binary
// send/receive support functions, Section 6.3 item 2).
var wireTag = []byte{'G', 'R', 'T', '1'}

// SupportFuncs returns the type support functions for GRT_TimeExtent_t,
// including the UC/NOW handling and constraint checking the paper added to
// the generated skeletons (Section 6.3).
func SupportFuncs() types.SupportFuncs {
	input := func(text string) ([]byte, error) {
		e, err := temporal.ParseExtent(text)
		if err != nil {
			return nil, err
		}
		if !e.Valid() {
			return nil, fmt.Errorf("grtblade: %v violates the bitemporal constraints (case invalid)", e)
		}
		return EncodeExtent(e), nil
	}
	output := func(data []byte) (string, error) {
		e, err := DecodeExtent(data)
		if err != nil {
			return "", err
		}
		return e.String(), nil
	}
	return types.SupportFuncs{
		Input:  input,
		Output: output,
		Send: func(data []byte) ([]byte, error) {
			if _, err := DecodeExtent(data); err != nil {
				return nil, err
			}
			return append(append([]byte(nil), wireTag...), data...), nil
		},
		Receive: func(wire []byte) ([]byte, error) {
			if len(wire) != len(wireTag)+extentSize || string(wire[:4]) != string(wireTag) {
				return nil, fmt.Errorf("grtblade: malformed wire value (%d bytes)", len(wire))
			}
			return append([]byte(nil), wire[4:]...), nil
		},
		// Text-file import/export (the LOAD format) share the text forms —
		// the code repetition BladeSmith generated is folded together here.
		Import: input,
		Export: output,
		// Value ordering for MIN/MAX: the encoding is big-endian and the
		// instants are signed, so raw bytewise comparison would misorder
		// negative instants — decode and compare the four timestamps
		// lexicographically instead. This is the same total order the
		// GR-tree's AggExtreme uses, which is what makes a pushed MIN/MAX
		// agree exactly with the server's tuple-drain fallback.
		Compare: func(a, b []byte) (int, error) {
			ea, err := DecodeExtent(a)
			if err != nil {
				return 0, err
			}
			eb, err := DecodeExtent(b)
			if err != nil {
				return 0, err
			}
			ka := [4]int64{int64(ea.TTBegin), int64(ea.TTEnd), int64(ea.VTBegin), int64(ea.VTEnd)}
			kb := [4]int64{int64(eb.TTBegin), int64(eb.TTEnd), int64(eb.VTBegin), int64(eb.VTEnd)}
			for i := range ka {
				if ka[i] < kb[i] {
					return -1, nil
				}
				if ka[i] > kb[i] {
					return 1, nil
				}
			}
			return 0, nil
		},
	}
}

// RegistrationSQL is the DataBlade's objects.sql analogue: the statements a
// BladeManager-style installer runs to register the blade (Sections 4/6.1).
const RegistrationSQL = `
-- purpose functions (Section 4, Step 2)
CREATE FUNCTION grt_create(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_create)' LANGUAGE c;
CREATE FUNCTION grt_drop(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_drop)' LANGUAGE c;
CREATE FUNCTION grt_open(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_open)' LANGUAGE c;
CREATE FUNCTION grt_close(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_close)' LANGUAGE c;
CREATE FUNCTION grt_beginscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_beginscan)' LANGUAGE c;
CREATE FUNCTION grt_endscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_endscan)' LANGUAGE c;
CREATE FUNCTION grt_rescan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_rescan)' LANGUAGE c;
CREATE FUNCTION grt_getnext(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_getnext)' LANGUAGE c;
CREATE FUNCTION grt_getmulti(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_getmulti)' LANGUAGE c;
CREATE FUNCTION grt_build(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_build)' LANGUAGE c;
CREATE FUNCTION grt_insert(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_insert)' LANGUAGE c;
CREATE FUNCTION grt_delete(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_delete)' LANGUAGE c;
CREATE FUNCTION grt_update(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_update)' LANGUAGE c;
CREATE FUNCTION grt_scancost(pointer) RETURNING float EXTERNAL NAME 'usr/functions/grtree.bld(grt_scancost)' LANGUAGE c;
CREATE FUNCTION grt_stats(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_stats)' LANGUAGE c;
CREATE FUNCTION grt_check(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_check)' LANGUAGE c;
CREATE FUNCTION grt_parallelscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_parallelscan)' LANGUAGE c;
CREATE FUNCTION grt_aggregate(pointer) RETURNING int EXTERNAL NAME 'usr/functions/grtree.bld(grt_aggregate)' LANGUAGE c;

-- strategy functions on the opaque type (Section 5.2)
CREATE FUNCTION Overlaps(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Overlaps)' LANGUAGE c;
CREATE FUNCTION Equal(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Equal)' LANGUAGE c;
CREATE FUNCTION Contains(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Contains)' LANGUAGE c;
CREATE FUNCTION ContainedIn(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(ContainedIn)' LANGUAGE c;

-- support functions, registered as UDRs though the index hard-codes them
CREATE FUNCTION GRT_Union(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING GRT_TimeExtent_t EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Union)' LANGUAGE c;
CREATE FUNCTION GRT_Size(GRT_TimeExtent_t) RETURNING float EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Size)' LANGUAGE c;
CREATE FUNCTION GRT_Inter(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING float EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Inter)' LANGUAGE c;

-- the access method (Section 4, Step 3)
CREATE SECONDARY ACCESS_METHOD grtree_am (
	am_create = grt_create,
	am_drop = grt_drop,
	am_open = grt_open,
	am_close = grt_close,
	am_beginscan = grt_beginscan,
	am_endscan = grt_endscan,
	am_rescan = grt_rescan,
	am_getnext = grt_getnext,
	am_getmulti = grt_getmulti,
	am_build = grt_build,
	am_insert = grt_insert,
	am_delete = grt_delete,
	am_update = grt_update,
	am_scancost = grt_scancost,
	am_stats = grt_stats,
	am_check = grt_check,
	am_parallelscan = grt_parallelscan,
	am_aggregate = grt_aggregate,
	am_sptype = 'S'
);

-- the operator class (Section 4, Step 4)
CREATE OPCLASS grt_opclass FOR grtree_am
	STRATEGIES(Overlaps, Equal, Contains, ContainedIn)
	SUPPORT(GRT_Union, GRT_Size, GRT_Inter);
`

// RegisterTypes registers the blade's opaque type; pass it as
// engine.Options.Types when re-opening a database whose catalog already
// references GRT_TimeExtent_t columns.
func RegisterTypes(reg *types.Registry) error {
	if _, ok := reg.Lookup(TypeName); ok {
		return nil
	}
	_, err := reg.RegisterOpaque(TypeName, SupportFuncs())
	return err
}

// Register installs the blade into an engine: the opaque type, the shared
// library, and the registration script (the BladeManager flow). On a
// re-opened database only the Go artefacts are re-installed; the SQL
// objects already live in the catalog.
func Register(e *engine.Engine) error {
	if err := RegisterTypes(e.Types()); err != nil {
		return err
	}
	return treeblade.Install(e, "grtblade", LibraryPath, Library(e), AmName, RegistrationSQL)
}

// openState is the blade's per-open-index state stored in the index
// descriptor (the Tree object plus the Cursor of Appendix A).
type openState struct {
	store      *nodestore.LOStore
	tree       *grtree.Tree
	cfg        config
	ct         chronon.Instant
	matcher    grtree.Matcher // the current scan's compiled qualification
	rightAfter bool           // grt_open invoked right after grt_create no-ops
}

// config decodes the index parameters.
type config struct {
	placement nodestore.Placement
	treeCfg   grtree.Config
	perStmtCT bool
	// dynamic switches leaf strategy evaluation from the hard-coded path to
	// dynamic UDR resolution (the extensibility-vs-efficiency trade-off of
	// Section 5.2; experiment P5).
	dynamic bool
}

func parseConfig(params map[string]string) (cfg config, err error) {
	cfg = config{placement: nodestore.SingleLO, treeCfg: grtree.DefaultConfig()}
	for k, v := range params {
		switch strings.ToLower(k) {
		case "placement":
			if !strings.HasPrefix(strings.ToLower(v), "subtree:") {
				if cfg.placement, err = treeblade.Placement("grtblade", v); err != nil {
					return cfg, err
				}
				continue
			}
			n, err := strconv.Atoi(v[len("subtree:"):])
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("grtblade: bad placement %q", v)
			}
			cfg.placement = nodestore.PerSubtreeLO(n)
		case "timeparam":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("grtblade: bad timeparam %q", v)
			}
			cfg.treeCfg.Bound.TimeParam = n
		case "hidden":
			cfg.treeCfg.Bound.AllowHidden = !strings.EqualFold(v, "off")
		case "deletepolicy":
			switch strings.ToLower(v) {
			case "restart-on-condense":
				cfg.treeCfg.DeletePolicy = grtree.RestartOnCondense
			case "restart-always":
				cfg.treeCfg.DeletePolicy = grtree.RestartAlways
			case "no-condense":
				cfg.treeCfg.DeletePolicy = grtree.NoCondense
			default:
				return cfg, fmt.Errorf("grtblade: bad deletepolicy %q", v)
			}
		case "maxentries":
			if cfg.treeCfg.MaxEntries, err = treeblade.MaxEntries("grtblade", v); err != nil {
				return cfg, err
			}
		case "timepolicy":
			switch strings.ToLower(v) {
			case "transaction":
				cfg.perStmtCT = false
			case "statement":
				cfg.perStmtCT = true
			default:
				return cfg, fmt.Errorf("grtblade: bad timepolicy %q", v)
			}
		case "dispatch":
			switch strings.ToLower(v) {
			case "hardcoded":
				cfg.dynamic = false
			case "dynamic":
				cfg.dynamic = true
			default:
				return cfg, fmt.Errorf("grtblade: bad dispatch %q", v)
			}
		default:
			return cfg, fmt.Errorf("grtblade: unknown index parameter %q", k)
		}
	}
	return cfg, nil
}

// currentTime implements Section 5.4: a constant current-time value for the
// whole transaction, obtained the first time the index is used in the
// transaction, kept in named memory identified by the session, and freed by
// a transaction-end callback. Per-statement policy simply reads the clock at
// grt_open (which the server calls once per statement).
func currentTime(ctx *mi.Context, svc am.Services, perStatement bool) chronon.Instant {
	if perStatement {
		return svc.Clock().Now()
	}
	const name = "grt_current_time"
	if v, ok := ctx.Named(name); ok {
		return v.(chronon.Instant)
	}
	ct := svc.Clock().Now()
	ctx.SetNamed(name, ct)
	ctx.OnTxEnd(func(mi.TxEvent) { ctx.FreeNamed(name) })
	return ct
}

// state fetches the blade state from the descriptor.
func state(id *am.IndexDesc) (*openState, error) { return treeblade.State[openState]("grtblade", id) }

// validateColumns implements grt_create steps 2–3: the access method only
// handles a single column of GRT_TimeExtent_t, and only its own operator
// classes.
func validateColumns(id *am.IndexDesc) error {
	if err := treeblade.CheckColumn("grtblade", AmName, TypeName, id); err != nil {
		return err
	}
	if id.OpClass != "" && !strings.EqualFold(id.OpClass, "grt_opclass") {
		return fmt.Errorf("grtblade: operator class %s cannot be used with grtree_am", id.OpClass)
	}
	return nil
}

// ExtentArg decodes a GRT_TimeExtent_t datum.
func ExtentArg(d types.Datum) (temporal.Extent, error) {
	op, ok := d.(types.Opaque)
	if !ok {
		return temporal.Extent{}, fmt.Errorf("grtblade: expected a %s value, got %T", TypeName, d)
	}
	return DecodeExtent(op.Data)
}
