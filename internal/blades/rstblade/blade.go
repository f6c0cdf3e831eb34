// Package rstblade is the baseline access-method DataBlade: an R*-tree
// (the index the GR-tree is derived from, and Informix's built-in spatial
// access method) indexing bitemporal time extents through ground-value
// substitution for the variables UC and NOW:
//
//   - nowsub='max' (the "maximum-timestamp" approach): UC and NOW map to a
//     timestamp larger than any real one, so growing regions are bounded by
//     enormous rectangles — correct answers, but heavy overlap and dead
//     space (experiments P1/P2 measure the cost against the GR-tree);
//   - nowsub='asof': UC and NOW resolve to the insertion-time current time,
//     freezing the region — small rectangles, but queries issued later miss
//     grown tuples (the recall loss P1 quantifies), unless the index is
//     periodically rebuilt.
//
// Unlike the GR-tree blade, this blade resolves its strategy functions
// dynamically through the UDR registry (the extensible alternative of
// Section 5.2); it reuses the Overlaps/Equal/Contains/ContainedIn UDRs that
// grtblade registers, so grtblade must be registered first.
package rstblade

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/blades/grtblade"
	"repro/internal/blades/treeblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/temporal"
	"repro/internal/types"
)

// LibraryPath is the "shared object" path of this blade.
const LibraryPath = "usr/functions/rstree.bld"

// AmName is the registered access method.
const AmName = "rstree_am"

// DefaultMaxTimestamp is the "maximum timestamp" ground substitute for UC
// and NOW: 9999-12-31 at day granularity.
var DefaultMaxTimestamp = chronon.FromDate(9999, 12, 31)

// RegistrationSQL registers the blade's SQL objects. The strategy functions
// are the ones grtblade registered — adding support for an existing data
// type to a new access method reuses the same function names (Section 4).
const RegistrationSQL = `
CREATE FUNCTION rst_create(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_create)' LANGUAGE c;
CREATE FUNCTION rst_drop(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_drop)' LANGUAGE c;
CREATE FUNCTION rst_open(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_open)' LANGUAGE c;
CREATE FUNCTION rst_close(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_close)' LANGUAGE c;
CREATE FUNCTION rst_beginscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_beginscan)' LANGUAGE c;
CREATE FUNCTION rst_endscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_endscan)' LANGUAGE c;
CREATE FUNCTION rst_rescan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_rescan)' LANGUAGE c;
CREATE FUNCTION rst_getnext(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_getnext)' LANGUAGE c;
CREATE FUNCTION rst_getmulti(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_getmulti)' LANGUAGE c;
CREATE FUNCTION rst_build(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_build)' LANGUAGE c;
CREATE FUNCTION rst_insert(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_insert)' LANGUAGE c;
CREATE FUNCTION rst_delete(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_delete)' LANGUAGE c;
CREATE FUNCTION rst_update(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_update)' LANGUAGE c;
CREATE FUNCTION rst_scancost(pointer) RETURNING float EXTERNAL NAME 'usr/functions/rstree.bld(rst_scancost)' LANGUAGE c;
CREATE FUNCTION rst_stats(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_stats)' LANGUAGE c;
CREATE FUNCTION rst_check(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_check)' LANGUAGE c;
CREATE FUNCTION rst_parallelscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_parallelscan)' LANGUAGE c;
CREATE FUNCTION rst_aggregate(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_aggregate)' LANGUAGE c;

CREATE SECONDARY ACCESS_METHOD rstree_am (
	am_create = rst_create,
	am_drop = rst_drop,
	am_open = rst_open,
	am_close = rst_close,
	am_beginscan = rst_beginscan,
	am_endscan = rst_endscan,
	am_rescan = rst_rescan,
	am_getnext = rst_getnext,
	am_getmulti = rst_getmulti,
	am_build = rst_build,
	am_insert = rst_insert,
	am_delete = rst_delete,
	am_update = rst_update,
	am_scancost = rst_scancost,
	am_stats = rst_stats,
	am_check = rst_check,
	am_parallelscan = rst_parallelscan,
	am_aggregate = rst_aggregate,
	am_sptype = 'S'
);

CREATE OPCLASS rst_opclass FOR rstree_am
	STRATEGIES(Overlaps, Equal, Contains, ContainedIn)
	SUPPORT(GRT_Union, GRT_Size, GRT_Inter);
`

// Register installs the blade. grtblade must already be registered (it owns
// the opaque type and the strategy UDRs).
func Register(e *engine.Engine) error {
	if _, ok := e.Types().Lookup(grtblade.TypeName); !ok {
		return fmt.Errorf("rstblade: register grtblade first (%s missing)", grtblade.TypeName)
	}
	return treeblade.Install(e, "rstblade", LibraryPath, Library(), AmName, RegistrationSQL)
}

// NowSub is the UC/NOW substitution policy.
type NowSub int

const (
	// SubMax maps UC and NOW to the maximum timestamp.
	SubMax NowSub = iota
	// SubAsOf resolves UC and NOW at the insertion-time current time.
	SubAsOf
)

type config struct {
	placement nodestore.Placement
	treeCfg   rstar.Config
	sub       NowSub
	maxTS     chronon.Instant
}

func parseConfig(params map[string]string) (cfg config, err error) {
	cfg = config{placement: nodestore.SingleLO, treeCfg: rstar.DefaultConfig(), maxTS: DefaultMaxTimestamp}
	for k, v := range params {
		switch strings.ToLower(k) {
		case "nowsub":
			switch strings.ToLower(v) {
			case "max":
				cfg.sub = SubMax
			case "asof":
				cfg.sub = SubAsOf
			default:
				return cfg, fmt.Errorf("rstblade: bad nowsub %q", v)
			}
		case "maxts":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("rstblade: bad maxts %q", v)
			}
			cfg.maxTS = chronon.Instant(n)
		case "maxentries":
			if cfg.treeCfg.MaxEntries, err = treeblade.MaxEntries("rstblade", v); err != nil {
				return cfg, err
			}
		case "placement":
			if cfg.placement, err = treeblade.Placement("rstblade", v); err != nil {
				return cfg, err
			}
		default:
			return cfg, fmt.Errorf("rstblade: unknown index parameter %q", k)
		}
	}
	return cfg, nil
}

// MapExtent converts a time extent to the indexed rectangle under the
// policy, as of ct.
func MapExtent(e temporal.Extent, sub NowSub, maxTS, ct chronon.Instant) rstar.Rect {
	tte := e.TTEnd
	vte := e.VTEnd
	switch sub {
	case SubMax:
		if tte == chronon.UC {
			tte = maxTS
		}
		if vte == chronon.NOW {
			vte = maxTS
		}
	case SubAsOf:
		sh := e.Region().Resolve(ct).BoundingBox()
		return rstar.Rect{XMin: sh.TTBegin, XMax: sh.TTEnd, YMin: sh.VTBegin, YMax: sh.VTEnd}
	}
	return rstar.Rect{XMin: int64(e.TTBegin), XMax: int64(tte), YMin: int64(e.VTBegin), YMax: int64(vte)}
}

type openState struct {
	store *nodestore.LOStore
	tree  *rstar.Tree
	cfg   config
	ct    chronon.Instant
	// scan state
	qr rstar.Rect // the current scan's conservative query rectangle
	// dynamic strategy dispatch (Section 5.2's extensible alternative):
	// exact filtering happens through registered UDRs invoked per candidate.
	qual *am.Qual
	// ground records that every entry ever indexed was a ground extent (no
	// UC/NOW substitution happened), so the stored rectangles are exact and
	// rst_aggregate may answer from them. Persisted in the access method's
	// bookkeeping table; a single now-relative insert clears it forever.
	ground bool

	rightAfter bool
}

// groundKey is the bookkeeping record carrying the ground flag. The
// "ground|"+name shape matches the catalog's per-index record purge.
func groundKey(indexName string) string { return "ground|" + strings.ToLower(indexName) }

func state(id *am.IndexDesc) (*openState, error) { return treeblade.State[openState]("rstblade", id) }

// Library returns the blade's symbol table.
func Library() am.Library {
	return am.Library{
		"rst_create":       am.AmIndexFunc(rstCreate),
		"rst_drop":         am.AmIndexFunc(rstDrop),
		"rst_open":         am.AmIndexFunc(rstOpen),
		"rst_close":        am.AmIndexFunc(rstClose),
		"rst_beginscan":    am.AmScanFunc(rstBeginScan),
		"rst_endscan":      am.AmScanFunc(rstEndScan),
		"rst_rescan":       am.AmScanFunc(rstRescan),
		"rst_getnext":      am.AmGetNextFunc(rstGetNext),
		"rst_getmulti":     am.AmGetMultiFunc(rstGetMulti),
		"rst_build":        am.AmBuildFunc(rstBuild),
		"rst_insert":       am.AmMutateFunc(rstInsert),
		"rst_delete":       am.AmMutateFunc(rstDelete),
		"rst_update":       am.AmUpdateFunc(rstUpdate),
		"rst_scancost":     am.AmScanCostFunc(rstScanCost),
		"rst_stats":        am.AmStatsFunc(rstStats),
		"rst_check":        am.AmCheckFunc(rstCheck),
		"rst_parallelscan": am.AmParallelScanFunc(rstParallelScan),
		"rst_aggregate":    am.AmAggregateFunc(rstAggregate),
	}
}

func rstCreate(ctx *mi.Context, id *am.IndexDesc) error {
	if err := treeblade.CheckColumn("rstblade", AmName, grtblade.TypeName, id); err != nil {
		return err
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	store, handle, err := treeblade.CreateStore("rstblade", AmName, id, cfg.placement)
	if err != nil {
		return err
	}
	tree, err := rstar.Create(store, cfg.treeCfg)
	if err != nil {
		return err
	}
	if err := id.Services.AMRecordPut(AmName, id.Name, treeblade.HandleRecord(handle)); err != nil {
		return err
	}
	// A fresh index holds only ground rectangles (vacuously); overwrite any
	// stale flag a dropped namesake left behind.
	if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{1}); err != nil {
		return err
	}
	id.UserData = &openState{
		store: store, tree: tree, cfg: cfg, ground: true,
		ct: id.Services.Clock().Now(), rightAfter: true,
	}
	return nil
}

func rstDrop(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	if err := st.store.Drop(); err != nil {
		return err
	}
	id.UserData = nil
	if err := id.Services.AMRecordDelete(AmName, groundKey(id.Name)); err != nil {
		return err
	}
	return id.Services.AMRecordDelete(AmName, id.Name)
}

func rstOpen(ctx *mi.Context, id *am.IndexDesc) error {
	if st, ok := id.UserData.(*openState); ok && st != nil && st.rightAfter {
		st.rightAfter = false
		return nil
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	store, err := treeblade.OpenStore("rstblade", AmName, id)
	if err != nil {
		return err
	}
	tree, err := rstar.Open(store, cfg.treeCfg)
	if err != nil {
		store.Close()
		return err
	}
	// Indexes created before the flag existed have no record and load as
	// non-ground, so rst_aggregate declines on them — safe, never wrong.
	ground := false
	if g, ok, err := id.Services.AMRecordGet(AmName, groundKey(id.Name)); err != nil {
		store.Close()
		return err
	} else if ok && len(g) == 1 && g[0] == 1 {
		ground = true
	}
	id.UserData = &openState{
		store: store, tree: tree, cfg: cfg, ground: ground,
		ct: id.Services.Clock().Now(),
	}
	return nil
}

func rstClose(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	if err := st.store.Close(); err != nil {
		return err
	}
	id.UserData = nil
	return nil
}

// queryRect maps a qualification's query extents to one conservative
// rectangle: any strategy match implies region overlap, so rectangle
// overlap with the union of the query rectangles is a sound index test.
func (st *openState) queryRect(q *am.Qual) (rstar.Rect, error) {
	leaves := q.Leaves()
	if len(leaves) == 0 {
		return rstar.Rect{}, fmt.Errorf("rstblade: empty qualification")
	}
	var out rstar.Rect
	first := true
	for _, l := range leaves {
		ext, err := grtblade.ExtentArg(l.Const)
		if err != nil {
			return rstar.Rect{}, err
		}
		r := MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct)
		if st.cfg.sub == SubMax {
			// Also cover the query's current resolution (ground queries over
			// growing data and vice versa).
			sh := ext.Region().Resolve(st.ct).BoundingBox()
			r = r.Union(rstar.Rect{XMin: sh.TTBegin, XMax: sh.TTEnd, YMin: sh.VTBegin, YMax: sh.VTEnd})
		}
		if first {
			out = r
			first = false
		} else {
			out = out.Union(r)
		}
	}
	return out, nil
}

func rstBeginScan(ctx *mi.Context, sd *am.ScanDesc) error {
	st, err := state(sd.Index)
	if err != nil {
		return err
	}
	if sd.Qual == nil {
		return fmt.Errorf("rstblade: scan without qualification")
	}
	qr, err := st.queryRect(sd.Qual)
	if err != nil {
		return err
	}
	cur, err := st.tree.Search(rstar.OpOverlaps, qr)
	if err != nil {
		return err
	}
	st.qual = sd.Qual
	st.qr = qr
	sd.UserData = cur
	ctx.Tracer().Tracef("rst", 2, "rst_beginscan %s: qual %s", sd.Index.Name, sd.Qual)
	return nil
}

// rstParallelScan implements am_parallelscan: a root fan-out partitioning
// over the conservative query rectangle, mirroring grt_parallelscan.
func rstParallelScan(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
	st, err := state(sd.Index)
	if err != nil {
		return nil, err
	}
	if st.qual == nil {
		return nil, fmt.Errorf("rstblade: parallelscan without beginscan")
	}
	ps, err := st.tree.ParallelScan(rstar.OpOverlaps, st.qr, degree)
	if err != nil || ps == nil {
		return nil, err
	}
	return treeblade.Partition(ctx, "rst", sd, ps, degree), nil
}

func rstRescan(ctx *mi.Context, sd *am.ScanDesc) error {
	return treeblade.Rescan("rstblade", sd)
}

func rstEndScan(ctx *mi.Context, sd *am.ScanDesc) error {
	if st, err := state(sd.Index); err == nil {
		st.qual = nil
	}
	sd.UserData = nil
	return nil
}

// rstGetNext returns candidate rowids. Exactness: the engine re-evaluates
// the full WHERE clause on the fetched row, invoking the registered
// strategy UDRs — the dynamic-resolution path of Section 5.2, whose
// overhead experiment P5 measures. The candidate set may include false
// positives (SubMax) or miss grown tuples (SubAsOf); the latter is the
// recall loss experiment P1 reports.
func rstGetNext(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
	return treeblade.GetNext("rstblade", sd, noRow)
}

// rstGetMulti implements am_getmulti: one dispatch drains the cursor's
// next candidate rowids (rows stay nil — exactness still comes from the
// engine re-evaluating the WHERE clause per fetched row, as in
// rstGetNext).
func rstGetMulti(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
	return treeblade.GetMulti("rstblade", sd, noRow)
}

// noRow is the indexed-column rendering of a candidate: none.
func noRow(rstar.Rect) []types.Datum { return nil }

// rstBuild implements am_build, the optional bulk-load purpose slot: the
// server feeds snapshot batches through next; the blade maps each extent to
// its conservative rectangle and packs the tree bottom-up with the
// sort-tile-recursive BulkLoad instead of one rst_insert per row.
func rstBuild(ctx *mi.Context, id *am.IndexDesc, next am.AmBuildNext) (int, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	var items []rstar.BulkItem
	err = treeblade.ForEachRow(next, func(rid heap.RowID, row []types.Datum) error {
		r, err := st.indexed(id, row[0])
		if err != nil {
			return err
		}
		items = append(items, rstar.BulkItem{Rect: r, Payload: rstar.Payload(rid)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := st.tree.BulkLoad(items); err != nil {
		return 0, err
	}
	ctx.Tracer().Tracef("rst", 1, "rst_build %s: bulk-loaded %d entries", id.Name, len(items))
	return len(items), nil
}

// clearGround records that the index now holds a substituted (now-relative)
// rectangle: rst_aggregate must decline from here on, in this open state and
// every future one.
func (st *openState) clearGround(id *am.IndexDesc) error {
	if !st.ground {
		return nil
	}
	if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{0}); err != nil {
		return err
	}
	st.ground = false
	return nil
}

// indexed maps a column value being indexed to its rectangle, enforcing
// the transaction-time constraints at the blade's current time and clearing
// the ground flag when the extent is now-relative.
func (st *openState) indexed(id *am.IndexDesc, d types.Datum) (rstar.Rect, error) {
	ext, err := grtblade.ExtentArg(d)
	if err != nil {
		return rstar.Rect{}, err
	}
	if !ext.ValidAt(st.ct) {
		return rstar.Rect{}, fmt.Errorf("rstblade: extent %v violates the transaction-time constraints at current time %v", ext, st.ct)
	}
	if ext.NowRelative() {
		if err := st.clearGround(id); err != nil {
			return rstar.Rect{}, err
		}
	}
	return MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct), nil
}

func rstInsert(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	r, err := st.indexed(id, row[0])
	if err != nil {
		return err
	}
	return st.tree.Insert(r, rstar.Payload(rid))
}

// rstDelete locates the entry by payload (the rectangle stored at insertion
// time is not reconstructible under SubAsOf, so the blade scans the
// conservative region for the payload).
func rstDelete(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	ext, err := grtblade.ExtentArg(row[0])
	if err != nil {
		return err
	}
	// Conservative search region: the max-substituted rectangle covers any
	// historical resolution of the extent.
	qr := MapExtent(ext, SubMax, st.cfg.maxTS, st.ct)
	cur, err := st.tree.Search(rstar.OpOverlaps, qr)
	if err != nil {
		return err
	}
	for {
		entry, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("rstblade: index %s has no entry for row %v: %w", id.Name, rid, am.ErrNoEntry)
		}
		if entry.Ref == uint64(rid) {
			removed, _, err := st.tree.Delete(entry.Key, rstar.Payload(rid))
			if err != nil {
				return err
			}
			if !removed {
				return fmt.Errorf("rstblade: delete raced on row %v", rid)
			}
			return nil
		}
	}
}

func rstUpdate(ctx *mi.Context, id *am.IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error {
	if err := rstDelete(ctx, id, oldRow, oldRid); err != nil {
		return err
	}
	return rstInsert(ctx, id, newRow, newRid)
}

// rstScanCost implements am_scancost with the shared height-plus-leaves
// estimate; with statistics each strategy-function leaf is estimated from
// the valid-time (Y-axis) histograms over the query's conservative
// rectangle.
func rstScanCost(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	return treeblade.ScanCost(ctx, "rst", id, st.tree.Tree, q, func(l *am.Qual) float64 {
		ext, err := grtblade.ExtentArg(l.Const)
		if err != nil {
			return 1
		}
		r := MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct)
		return id.Stats.SelectivityOverlap(float64(r.YMin), float64(r.YMax))
	}), nil
}

// rstStats implements am_stats. The indexed rectangles already carry their
// substituted ground values, so the leaves are summarized as stored.
func rstStats(ctx *mi.Context, id *am.IndexDesc) (*am.IndexStats, error) {
	st, err := state(id)
	if err != nil {
		return nil, err
	}
	ts, err := st.tree.Tree.Stats(struct{}{})
	if err != nil {
		return nil, err
	}
	return treeblade.IndexStats(id.Name, ts, func(visit func(lo, hi int64)) error {
		return st.tree.WalkLeaves(func(e rstar.Entry) error {
			visit(e.Key.YMin, e.Key.YMax)
			return nil
		})
	})
}

// rstAggregate implements am_aggregate. The R*-tree scan protocol returns
// candidates for the server to re-qualify, so in general the index cannot
// answer an aggregate exactly — but when every indexed extent is ground (no
// UC/NOW substitution ever happened, tracked by the persisted ground flag)
// and the query extent is ground too, the stored rectangles are the exact
// extents and the rectangle predicates coincide with the strategy-function
// semantics. Anything else declines and the server drains tuples.
func rstAggregate(ctx *mi.Context, id *am.IndexDesc, req *am.AggRequest) (*am.AggResult, bool, error) {
	st, err := state(id)
	if err != nil {
		return nil, false, err
	}
	if !st.ground {
		return nil, false, nil
	}
	if req.Qual == nil || req.Qual.Op != am.QFunc {
		return nil, false, nil
	}
	s, ok := treeblade.Strategy(req.Qual)
	if !ok {
		return nil, false, nil
	}
	op := rstar.Op(s)
	ext, err := grtblade.ExtentArg(req.Qual.Const)
	if err != nil || ext.NowRelative() || !ext.Valid() {
		return nil, false, nil
	}
	query := rstar.Rect{
		XMin: int64(ext.TTBegin), XMax: int64(ext.TTEnd),
		YMin: int64(ext.VTBegin), YMax: int64(ext.VTEnd),
	}
	switch req.Kind {
	case am.AggCount:
		n, ok, err := st.tree.AggCount(op, query)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Tracer().Tracef("rst", 2, "rst_aggregate %s: count=%d", id.Name, n)
		return &am.AggResult{Count: n}, true, nil
	case am.AggMin, am.AggMax:
		r, found, ok, err := st.tree.AggExtreme(op, query, req.Kind == am.AggMax)
		if err != nil || !ok {
			return nil, false, err
		}
		if !found {
			return &am.AggResult{Empty: true}, true, nil
		}
		out := temporal.Extent{
			TTBegin: chronon.Instant(r.XMin), TTEnd: chronon.Instant(r.XMax),
			VTBegin: chronon.Instant(r.YMin), VTEnd: chronon.Instant(r.YMax),
		}
		val := types.Opaque{TypeID: id.ColTypes[0].OpaqueID, Data: grtblade.EncodeExtent(out)}
		ctx.Tracer().Tracef("rst", 2, "rst_aggregate %s: %s=%v", id.Name, req.Kind, out)
		return &am.AggResult{Value: val}, true, nil
	}
	return nil, false, nil
}

func rstCheck(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	return st.tree.Check()
}
