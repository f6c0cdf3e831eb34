package rstar

import (
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/rtree"
)

// Payload is the opaque leaf value (rowid).
type Payload uint64

type (
	// Entry is a node entry: a rectangle as its Key plus a child node id or
	// payload as its Ref.
	Entry = rtree.Entry[Rect]
	// Cursor iterates a query's qualifying entries.
	Cursor = rtree.Cursor[Rect, struct{}]
	// ParallelScan is a root fan-out partitioning of a query.
	ParallelScan = rtree.ParallelScan[Rect, struct{}]
	// LevelStats aggregates one level for the goodness measures.
	LevelStats = rtree.LevelStats
)

// Config tunes the R*-tree.
type Config struct {
	MaxEntries  int // default and max: Capacity
	MinFillPct  int // default 40
	ReinsertPct int // default 30; 0 disables forced reinsertion
}

// DefaultConfig returns the standard R* parameters.
func DefaultConfig() Config { return Config{MaxEntries: Capacity, MinFillPct: 40, ReinsertPct: 30} }

func (c Config) core() rtree.Config {
	return rtree.Config{MaxEntries: c.MaxEntries, MinFillPct: c.MinFillPct, ReinsertPct: c.ReinsertPct}
}

// Tree is an R*-tree over a node store: the shared R* core running on the
// rectangle algebra. Read-only traversal is latched so a parallel scan's
// workers may descend concurrently; mutations stay single-goroutine.
type Tree struct {
	*rtree.Tree[Rect, struct{}]
}

// Create initialises an empty tree.
func Create(store nodestore.Store, cfg Config) (*Tree, error) {
	t, err := rtree.Create(store, rects{}, format, cfg.core())
	if err != nil {
		return nil, err
	}
	return &Tree{t}, nil
}

// Open loads an existing tree.
func Open(store nodestore.Store, cfg Config) (*Tree, error) {
	t, err := rtree.Open(store, rects{}, format, cfg.core())
	if err != nil {
		return nil, err
	}
	return &Tree{t}, nil
}

// Insert adds a rectangle with its payload.
func (t *Tree) Insert(r Rect, payload Payload) error {
	if r.Empty() {
		return fmt.Errorf("rstar: insert of empty rectangle %v", r)
	}
	return t.Tree.Insert(r, uint64(payload), struct{}{})
}

// Delete removes the leaf entry with exactly this rectangle and payload,
// reporting whether it was removed and whether the tree condensed.
func (t *Tree) Delete(r Rect, payload Payload) (removed, condensed bool, err error) {
	return t.Tree.Delete(r, uint64(payload), struct{}{})
}

// Op is a query operator, matching the R-tree operator class strategy
// functions Overlap(), Equal(), Contains(), Within() (Section 5.2) in their
// STRATEGIES order.
type Op int

const (
	// OpOverlaps finds rectangles sharing a cell with the query.
	OpOverlaps Op = iota
	// OpEqual finds rectangles equal to the query.
	OpEqual
	// OpContains finds rectangles containing the query.
	OpContains
	// OpContainedIn finds rectangles inside the query (Within).
	OpContainedIn
)

func (o Op) String() string {
	switch o {
	case OpOverlaps:
		return "Overlap"
	case OpEqual:
		return "Equal"
	case OpContains:
		return "Contains"
	case OpContainedIn:
		return "Within"
	}
	return "?"
}

func leafTest(op Op, r, q Rect) bool {
	switch op {
	case OpOverlaps:
		return r.Overlaps(q)
	case OpEqual:
		return r == q
	case OpContains:
		return r.Contains(q)
	case OpContainedIn:
		return q.Contains(r)
	}
	return false
}

func internalTest(op Op, bound, q Rect) bool {
	switch op {
	case OpOverlaps, OpContainedIn:
		return bound.Overlaps(q)
	case OpEqual, OpContains:
		return bound.Contains(q)
	}
	return false
}

// query is an operator applied to a query rectangle — the core's matcher.
type query struct {
	op Op
	q  Rect
}

func (m query) LeafMatch(r Rect) bool { return leafTest(m.op, r, m.q) }

func (m query) InternalMatch(bound Rect) bool { return internalTest(m.op, bound, m.q) }

// Search creates a cursor for op against the query rectangle.
func (t *Tree) Search(op Op, q Rect) (*Cursor, error) {
	if q.Empty() {
		return nil, fmt.Errorf("rstar: empty query rectangle %v", q)
	}
	return t.Tree.Search(query{op, q}), nil
}

// SearchAll runs the query to completion (tests and benchmarks).
func (t *Tree) SearchAll(op Op, q Rect) ([]Payload, error) {
	cur, err := t.Search(op, q)
	if err != nil {
		return nil, err
	}
	return rtree.Collect[Payload](cur)
}

// ParallelScan offers the query a root fan-out partitioning; nil (no error)
// declines when the tree is too shallow or fewer than two root children
// match.
func (t *Tree) ParallelScan(op Op, q Rect, degree int) (*ParallelScan, error) {
	if q.Empty() {
		return nil, nil
	}
	return t.Tree.ParallelScan(query{op, q}, degree)
}

// BulkItem is one (rectangle, payload) pair for bulk loading.
type BulkItem struct {
	Rect    Rect
	Payload Payload
}

// BulkLoad builds the tree from scratch using sort-tile-recursive packing.
// The tree must be empty.
func (t *Tree) BulkLoad(items []BulkItem) error {
	entries := make([]Entry, len(items))
	for i, it := range items {
		if it.Rect.Empty() {
			return fmt.Errorf("rstar: bulk item %d has empty rectangle %v", i, it.Rect)
		}
		entries[i] = Entry{Key: it.Rect, Ref: uint64(it.Payload)}
	}
	return t.Tree.BulkLoad(entries, struct{}{})
}

// AggCount counts qualifying leaf entries without visiting tuples
// (am_aggregate); the rstblade only asks when every stored rectangle is
// exact (ground). A subtree the query contains is counted whole for Overlap
// and Within. ok is false when the tree changed structurally.
func (t *Tree) AggCount(op Op, q Rect) (int64, bool, error) {
	if q.Empty() {
		return 0, false, nil
	}
	return t.Tree.AggCount(query{op, q}, func(bound Rect) bool {
		return (op == OpOverlaps || op == OpContainedIn) && q.Contains(bound)
	})
}

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf rectangle under the lexicographic key. found is false when
// nothing qualifies; ok is false when the tree changed structurally.
func (t *Tree) AggExtreme(op Op, q Rect, wantMax bool) (Rect, bool, bool, error) {
	if q.Empty() {
		return Rect{}, false, false, nil
	}
	return t.Tree.AggExtreme(query{op, q}, wantMax)
}

// Check validates the structural invariants.
func (t *Tree) Check() error { return t.Tree.Check(struct{}{}) }

// Stats walks the tree computing structure, area, and overlap per level,
// in ascending level order.
func (t *Tree) Stats() ([]LevelStats, error) {
	st, err := t.Tree.Stats(struct{}{})
	return st.PerLevel, err
}
