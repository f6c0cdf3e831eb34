// Package treeblade holds the purpose-function glue the two R*-family tree
// blades share — grtblade over the GR-tree and rstblade over the baseline
// R*-tree: index-parameter parsing, open-state lookup and the
// single-opaque-column check, the sbspace store behind an index, the
// am_scancost estimate with its histogram selectivity, the am_stats
// histograms, and the cursor plumbing of am_getnext, am_getmulti, am_rescan,
// am_parallelscan and am_build. What makes the blades differ — grtblade's
// hard-coded strategy dispatch (Section 5.2), rstblade's dynamic
// re-qualification and UC/NOW substitution — stays in the blades.
package treeblade

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/sbspace"
	"repro/internal/types"
)

// Placement decodes the 'placement' index parameter's shared values:
// 'single' (the whole index in one large object, Section 5.3) or 'pernode'.
func Placement(blade, v string) (nodestore.Placement, error) {
	switch {
	case strings.EqualFold(v, "single"):
		return nodestore.SingleLO, nil
	case strings.EqualFold(v, "pernode"):
		return nodestore.PerNodeLO, nil
	}
	return nodestore.Placement{}, fmt.Errorf("%s: bad placement %q", blade, v)
}

// MaxEntries decodes the 'maxentries' index parameter (at least 4).
func MaxEntries(blade, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 4 {
		return 0, fmt.Errorf("%s: bad maxentries %q", blade, v)
	}
	return n, nil
}

// State fetches a blade's open state from the index descriptor.
func State[T any](blade string, id *am.IndexDesc) (*T, error) {
	st, ok := id.UserData.(*T)
	if !ok || st == nil {
		return nil, fmt.Errorf("%s: index %s is not open", blade, id.Name)
	}
	return st, nil
}

// CheckColumn verifies that the index covers exactly one column of the
// opaque type typeName: the qualification descriptor only accommodates
// single-column predicates (Section 5.1).
func CheckColumn(blade, amName, typeName string, id *am.IndexDesc) error {
	if len(id.ColTypes) != 1 {
		return fmt.Errorf("%s: %s indexes exactly one column, got %d", blade, amName, len(id.ColTypes))
	}
	if id.ColTypes[0].Kind != types.KOpaque || !strings.EqualFold(id.ColTypes[0].Name, typeName) {
		return fmt.Errorf("%s: %s cannot handle column type %v", blade, amName, id.ColTypes[0])
	}
	return nil
}

// CreateStore creates the large object(s) a new index lives in. Its handle
// goes into the access method's table under the index name, encoded by
// HandleRecord, for OpenStore to find.
func CreateStore(blade, amName string, id *am.IndexDesc, pl nodestore.Placement) (*nodestore.LOStore, sbspace.Handle, error) {
	if id.SpaceName == "" {
		return nil, sbspace.NilHandle, fmt.Errorf("%s: %s stores indexes in sbspaces; use CREATE INDEX ... IN <sbspace>", blade, amName)
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return nil, sbspace.NilHandle, err
	}
	return nodestore.CreateLO(space, id.Services.TxID(), id.Services.Isolation(), pl)
}

// HandleRecord encodes a store handle as its access-method record.
func HandleRecord(h sbspace.Handle) []byte {
	buf := make([]byte, sbspace.HandleSize)
	h.Encode(buf)
	return buf
}

// OpenStore opens an index's large object, located through its
// access-method record: shared for read-only statements, exclusive
// otherwise (Section 5.3's automatic LO-level locking).
func OpenStore(blade, amName string, id *am.IndexDesc) (*nodestore.LOStore, error) {
	rec, ok, err := id.Services.AMRecordGet(amName, id.Name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%s: index %s has no access-method record", blade, id.Name)
	}
	if len(rec) != sbspace.HandleSize {
		return nil, fmt.Errorf("%s: corrupt access-method record (%d bytes)", blade, len(rec))
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return nil, err
	}
	mode := sbspace.ReadWrite
	if id.ReadOnly {
		mode = sbspace.ReadOnly
	}
	return nodestore.OpenLO(space, id.Services.TxID(), id.Services.Isolation(), sbspace.DecodeHandle(rec), mode)
}

// Install loads a blade's shared library into the engine and, unless a
// previous incarnation already registered the access method, runs the
// blade's registration script (the BladeManager flow; on a re-opened
// database the SQL objects already live in the catalog).
func Install(e *engine.Engine, blade, libPath string, lib am.Library, amName, script string) error {
	e.LoadLibrary(libPath, lib)
	if _, err := e.Catalog().AmByName(amName); err == nil {
		return nil
	}
	s := e.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(script); err != nil {
		return fmt.Errorf("%s: registration: %w", blade, err)
	}
	return nil
}

// Strategy maps a qualification leaf to its strategy number: the position
// of its function in the operator class's STRATEGIES list (Overlaps, Equal,
// Contains, ContainedIn), the order both trees' operators are numbered in.
// Argument order matters for the asymmetric predicates: Contains(const,
// column) is the commutator ContainedIn(column, const). ok is false for any
// other function.
func Strategy(q *am.Qual) (n int, ok bool) {
	switch strings.ToLower(q.Func) {
	case "overlaps":
		return 0, true
	case "equal":
		return 1, true
	case "contains":
		if q.ColFirst {
			return 2, true
		}
		return 3, true
	case "containedin":
		if q.ColFirst {
			return 3, true
		}
		return 2, true
	}
	return 0, false
}

// ScanCost is the am_scancost estimate: tree height plus the fraction of
// the leaves (size / maxentries + 1) a scan touches. With statistics on the
// descriptor (UPDATE STATISTICS ran) the fraction is the qualification's
// histogram selectivity, with leaf estimating each strategy-function leaf,
// AND taking the most selective conjunct and OR saturating-adding;
// otherwise it is the constant 0.2.
func ScanCost[K comparable, X any](ctx *mi.Context, trace string, id *am.IndexDesc, t *rtree.Tree[K, X], q *am.Qual, leaf func(*am.Qual) float64) float64 {
	leafNodes := float64(t.Size())/float64(t.Config().MaxEntries) + 1
	if id.Stats != nil && id.Stats.Lo.Rows > 0 {
		sel := selectivity(q, leaf)
		cost := 1 + float64(t.Height()) + sel*leafNodes
		ctx.Tracer().Tracef(trace, 2, "%s_scancost %s: %.2f (stats, sel %.3f over ~%.0f leaves)",
			trace, id.Name, cost, sel, leafNodes)
		return cost
	}
	cost := float64(t.Height()) + 0.2*leafNodes
	ctx.Tracer().Tracef(trace, 2, "%s_scancost %s: %.2f (height %d, ~%.0f leaves)",
		trace, id.Name, cost, t.Height(), leafNodes)
	return cost
}

func selectivity(q *am.Qual, leaf func(*am.Qual) float64) float64 {
	if q == nil {
		return 1
	}
	switch q.Op {
	case am.QAnd:
		sel := 1.0
		for _, c := range q.Children {
			if s := selectivity(c, leaf); s < sel {
				sel = s
			}
		}
		return sel
	case am.QOr:
		sel := 0.0
		for _, c := range q.Children {
			sel += selectivity(c, leaf)
		}
		if sel > 1 {
			sel = 1
		}
		return sel
	case am.QFunc:
		return leaf(q)
	}
	return 1
}

// histogramBuckets is the equi-depth bucket count am_stats collects.
const histogramBuckets = 32

// IndexStats builds the am_stats answer: a summary of the tree's shape plus
// the entry count and the equi-depth histograms of every entry's valid-time
// interval, which UPDATE STATISTICS persists into SYSSTATS for
// am_scancost. walk reports each leaf entry's interval to visit.
func IndexStats(name string, st rtree.Stats, walk func(visit func(lo, hi int64)) error) (*am.IndexStats, error) {
	var overlap float64
	for _, l := range st.PerLevel {
		overlap += l.Overlap
	}
	lo := make([]float64, 0, st.LeafEntries)
	hi := make([]float64, 0, st.LeafEntries)
	err := walk(func(l, h int64) {
		lo = append(lo, float64(l))
		hi = append(hi, float64(h))
	})
	if err != nil {
		return nil, err
	}
	return &am.IndexStats{
		Summary: fmt.Sprintf("index %s: %d entries, height %d, %d nodes, sibling overlap %.0f",
			name, st.LeafEntries, st.Height, st.Nodes, overlap),
		Entries: st.LeafEntries,
		Lo:      am.BuildHistogram(lo, histogramBuckets),
		Hi:      am.BuildHistogram(hi, histogramBuckets),
	}, nil
}

// GetNext implements am_getnext over the descriptor's serial cursor; row
// renders an entry's indexed-column values (nil when the blade returns
// none).
func GetNext[K any](blade string, sd *am.ScanDesc, row func(K) []types.Datum) (heap.RowID, []types.Datum, bool, error) {
	cur, ok := sd.UserData.(interface {
		Next() (rtree.Entry[K], bool, error)
	})
	if !ok {
		return 0, nil, false, fmt.Errorf("%s: getnext without beginscan", blade)
	}
	e, ok, err := cur.Next()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return heap.RowID(e.Ref), row(e.Key), true, nil
}

// GetMulti implements am_getmulti: one purpose-function dispatch drains the
// cursor's next qualifying entries — each visited leaf node's matches in a
// single pass — into the server's batch buffer. The descriptor holds either
// the serial cursor or, on a parallel partition descriptor, a PartCursor;
// both drain through NextBatch. Fewer entries than the batch holds signals
// exhaustion.
func GetMulti[K any](blade string, sd *am.ScanDesc, row func(K) []types.Datum) (int, error) {
	cur, ok := sd.UserData.(interface {
		NextBatch([]rtree.Entry[K]) (int, error)
	})
	if !ok {
		return 0, fmt.Errorf("%s: getmulti without beginscan", blade)
	}
	b := sd.Batch
	b.Reset()
	entries := make([]rtree.Entry[K], b.Cap())
	n, err := cur.NextBatch(entries)
	if err != nil {
		return 0, err
	}
	for _, e := range entries[:n] {
		b.Append(heap.RowID(e.Ref), row(e.Key))
	}
	return b.N, nil
}

// Rescan implements am_rescan: discard batched-but-undelivered entries —
// after a restart (Section 5.5's restart-on-condense) buffered rowids may no
// longer qualify, and the reset cursor produces the qualifying ones again —
// and rewind the cursor, or re-seed a parallel scan's work queue.
func Rescan(blade string, sd *am.ScanDesc) error {
	if sd.Batch != nil {
		sd.Batch.Reset()
	}
	switch cur := sd.UserData.(type) {
	case interface{ Reset() error }:
		return cur.Reset()
	case interface{ Reset() }:
		cur.Reset()
		return nil
	}
	return fmt.Errorf("%s: rescan without a cursor", blade)
}

// Partition implements the am_parallelscan hand-out once the tree accepted
// a root fan-out partitioning: one partition descriptor per worker (at most
// degree, at most one per subtree), each carrying its own PartCursor. The
// parent descriptor's UserData becomes the ParallelScan itself, so am_rescan
// re-seeds the shared work queue and am_endscan tears the whole
// partitioning down.
func Partition[K comparable, X any](ctx *mi.Context, trace string, sd *am.ScanDesc, ps *rtree.ParallelScan[K, X], degree int) []*am.ScanDesc {
	workers := min(ps.Parts(), degree)
	sd.UserData = ps
	out := make([]*am.ScanDesc, workers)
	for i := range out {
		out[i] = &am.ScanDesc{
			Index: sd.Index, Qual: sd.Qual,
			BatchCap: sd.BatchCap, Obs: sd.Obs,
			UserData: ps.Cursor(),
		}
	}
	ctx.Tracer().Tracef(trace, 2, "%s_parallelscan %s: %d workers over %d subtrees", trace, sd.Index.Name, workers, ps.Parts())
	return out
}

// ForEachRow feeds every row of an am_build snapshot to fn.
func ForEachRow(next am.AmBuildNext, fn func(rid heap.RowID, row []types.Datum) error) error {
	for {
		b, err := next()
		if err != nil || b == nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if err := fn(b.RowIDs[i], b.Rows[i]); err != nil {
				return err
			}
		}
	}
}
