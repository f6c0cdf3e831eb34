package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nodestore"
	"repro/internal/temporal"
)

// Insert adds a leaf entry for key k with its payload.
func (t *Tree[K, X]) Insert(k K, payload uint64, x X) error {
	if err := t.insertAtLevel(Entry[K]{Key: k, Ref: payload}, 0, x, make(map[int]bool)); err != nil {
		return err
	}
	t.size++
	return t.saveMeta()
}

// pathStep records one step of a root-to-target descent.
type pathStep[K any] struct {
	n   *node[K]
	idx int // child index taken in n
}

// insertAtLevel inserts an entry at the given level (0 = leaf), applying
// R* overflow treatment (forced reinsertion once per level per top-level
// insertion, then splitting).
func (t *Tree[K, X]) insertAtLevel(e Entry[K], level int, x X, reinserted map[int]bool) error {
	// Descend to a node at `level`, recording the path.
	var path []pathStep[K]
	n, err := t.readNode(t.root)
	if err != nil {
		return err
	}
	for n.level > level {
		idx := t.chooseSubtree(n, e.Key, x)
		path = append(path, pathStep[K]{n: n, idx: idx})
		child, err := t.readNode(n.entries[idx].Child())
		if err != nil {
			return err
		}
		n = child
	}
	n.entries = append(n.entries, e)

	// Overflow treatment, bubbling up the path.
	for {
		if len(n.entries) <= t.cfg.MaxEntries {
			if err := t.writeNode(n); err != nil {
				return err
			}
			return t.adjustPath(path, n, x)
		}
		isRoot := n.id == t.root
		if !isRoot && !reinserted[n.level] && t.cfg.ReinsertPct > 0 {
			reinserted[n.level] = true
			return t.forcedReinsert(path, n, x, reinserted)
		}
		left, right, err := t.split(n, x)
		if err != nil {
			return err
		}
		t.epoch++
		if isRoot {
			return t.growRoot(left, right, x)
		}
		// Replace the parent's entry for n with the two halves.
		parent := path[len(path)-1].n
		idx := path[len(path)-1].idx
		path = path[:len(path)-1]
		parent.entries[idx] = Entry[K]{Key: t.bound(left, x), Ref: uint64(left.id)}
		parent.entries = append(parent.entries, Entry[K]{Key: t.bound(right, x), Ref: uint64(right.id)})
		n = parent
	}
}

// adjustPath rewrites bounds along the recorded path after n changed.
func (t *Tree[K, X]) adjustPath(path []pathStep[K], n *node[K], x X) error {
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		step.n.entries[step.idx] = Entry[K]{Key: t.bound(child, x), Ref: uint64(child.id)}
		if err := t.writeNode(step.n); err != nil {
			return err
		}
		child = step.n
	}
	return nil
}

// growRoot installs a new root over the two halves of a root split.
func (t *Tree[K, X]) growRoot(left, right *node[K], x X) error {
	id, err := t.store.Alloc()
	if err != nil {
		return err
	}
	root := &node[K]{id: id, level: left.level + 1, entries: []Entry[K]{
		{Key: t.bound(left, x), Ref: uint64(left.id)},
		{Key: t.bound(right, x), Ref: uint64(right.id)},
	}}
	if err := t.writeNode(root); err != nil {
		return err
	}
	t.root = id
	t.height++
	return t.saveMeta()
}

// chooseSubtree picks the child of n to descend into for key k: at the level
// just above the leaves it minimises overlap enlargement; higher up, area
// enlargement — both scored by the algebra under x (the GR-tree scores at
// the time-parameter horizon, Section 3).
func (t *Tree[K, X]) chooseSubtree(n *node[K], k K, x X) int {
	type cand struct {
		idx     int
		enlarge float64
		area    float64
	}
	cands := make([]cand, len(n.entries))
	unions := make([]K, len(n.entries))
	for i, e := range n.entries {
		var d float64
		d, unions[i] = t.alg.Enlarge(e.Key, k, x)
		cands[i] = cand{idx: i, enlarge: d, area: area(t.alg.Resolve(e.Key, x))}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].enlarge != cands[b].enlarge {
			return cands[a].enlarge < cands[b].enlarge
		}
		return cands[a].area < cands[b].area
	})
	if n.level != 1 {
		return cands[0].idx
	}
	// Leaf parent: among the (up to) 16 least-enlarging candidates, pick the
	// one whose enlargement increases overlap with siblings the least (R*).
	k16 := min(len(cands), 16)
	shapes := make([]temporal.Shape, len(n.entries))
	for i, e := range n.entries {
		shapes[i] = t.alg.Resolve(e.Key, x)
	}
	best := 0
	bestOverlap := math.Inf(1)
	for c := 0; c < k16; c++ {
		i := cands[c].idx
		ns := t.alg.Resolve(unions[i], x)
		var delta float64
		for j := range n.entries {
			if j == i {
				continue
			}
			delta += overlap(&ns, &shapes[j]) - overlap(&shapes[i], &shapes[j])
		}
		if delta < bestOverlap {
			bestOverlap = delta
			best = c
		}
	}
	return cands[best].idx
}

// split performs the R* topological split: the axis is chosen by minimum
// margin sum over the candidate distributions, the distribution by minimum
// overlap area then minimum total area, all on the algebra's scored shapes.
// The left half reuses n's node id; the right half gets a fresh node.
func (t *Tree[K, X]) split(n *node[K], x X) (*node[K], *node[K], error) {
	m := t.minFill()
	entries := n.entries
	M := len(entries)
	shapes := make([]temporal.Shape, M)
	for i, e := range entries {
		shapes[i] = t.alg.Resolve(e.Key, x)
	}
	var sortings [4][]int // one permutation per split sort key; axis = key/2
	for key := range sortings {
		perm := make([]int, M)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool { return t.alg.SplitLess(key, shapes[perm[a]], shapes[perm[b]]) })
		sortings[key] = perm
	}

	ks := make([]K, 0, M) // scratch: Bound does not retain its argument
	boundOf := func(idxs []int) temporal.Shape {
		ks = ks[:0]
		for _, ix := range idxs {
			ks = append(ks, entries[ix].Key)
		}
		return t.alg.Resolve(t.alg.Bound(ks, x), x)
	}

	// Choose the split axis by minimum margin sum.
	axisMargin := [2]float64{}
	for key, perm := range sortings {
		for k := m; k <= M-m; k++ {
			axisMargin[key/2] += boundOf(perm[:k]).Margin() + boundOf(perm[k:]).Margin()
		}
	}
	axis := 0
	if axisMargin[1] < axisMargin[0] {
		axis = 1
	}

	// Choose the distribution on that axis by min overlap, then min area.
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var bestPerm []int
	bestK := -1
	for _, perm := range sortings[2*axis : 2*axis+2] {
		for k := m; k <= M-m; k++ {
			sh1, sh2 := boundOf(perm[:k]), boundOf(perm[k:])
			ov := overlap(&sh1, &sh2)
			ar := area(sh1) + area(sh2)
			if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
				bestOverlap, bestArea = ov, ar
				bestPerm, bestK = perm, k
			}
		}
	}
	if bestK < 0 {
		return nil, nil, fmt.Errorf("%s: split of node %d found no distribution", t.format.Name, n.id)
	}

	half := func(id nodestore.NodeID, idxs []int) *node[K] {
		h := &node[K]{id: id, leaf: n.leaf, level: n.level, entries: make([]Entry[K], 0, len(idxs))}
		for _, ix := range idxs {
			h.entries = append(h.entries, entries[ix])
		}
		return h
	}
	left := half(n.id, bestPerm[:bestK])
	rid, err := t.store.Alloc()
	if err != nil {
		return nil, nil, err
	}
	right := half(rid, bestPerm[bestK:])
	if err := t.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// forcedReinsert removes the ReinsertPct entries whose centres lie farthest
// from the node's centre, repairs bounds, and re-inserts them from the top
// (R* forced reinsertion, close-reinsert order).
func (t *Tree[K, X]) forcedReinsert(path []pathStep[K], n *node[K], x X, reinserted map[int]bool) error {
	k := max(len(n.entries)*t.cfg.ReinsertPct/100, 1)
	cx, cy := centre(t.alg.Resolve(t.bound(n, x), x))
	type dist struct {
		idx int
		d   float64
	}
	ds := make([]dist, len(n.entries))
	for i, e := range n.entries {
		ex, ey := centre(t.alg.Resolve(e.Key, x))
		ds[i] = dist{idx: i, d: (ex-cx)*(ex-cx) + (ey-cy)*(ey-cy)}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	removed := make([]Entry[K], 0, k)
	drop := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		removed = append(removed, n.entries[ds[i].idx])
		drop[ds[i].idx] = true
	}
	kept := n.entries[:0:0]
	for i, e := range n.entries {
		if !drop[i] {
			kept = append(kept, e)
		}
	}
	n.entries = kept
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.adjustPath(path, n, x); err != nil {
		return err
	}
	t.epoch++
	// Close reinsert: nearest first.
	for i := len(removed) - 1; i >= 0; i-- {
		if err := t.insertAtLevel(removed[i], n.level, x, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// centre returns the centre of s's bounding box (forced-reinsertion
// distances and STR tiling).
func centre(s temporal.Shape) (float64, float64) {
	bb := s.BoundingBox()
	return float64(bb.TTBegin+bb.TTEnd) / 2, float64(bb.VTBegin+bb.VTEnd) / 2
}

// area and overlap are Shape.Area and Shape.IntersectionArea with the
// rectangle case inlined: ChooseSubtree and split evaluate them in their
// innermost loops, and R*-tree shapes are always rectangles. The arithmetic
// is the same, so the results are too.
func area(s temporal.Shape) float64 {
	if s.Stair {
		return s.Area()
	}
	if s.TTBegin > s.TTEnd || s.VTBegin > s.VTEnd {
		return 0
	}
	return float64(s.TTEnd-s.TTBegin+1) * float64(s.VTEnd-s.VTBegin+1)
}

func overlap(a, b *temporal.Shape) float64 {
	if a.Stair || b.Stair {
		return a.IntersectionArea(*b)
	}
	ttb, tte := max(a.TTBegin, b.TTBegin), min(a.TTEnd, b.TTEnd)
	vtb, vte := max(a.VTBegin, b.VTBegin), min(a.VTEnd, b.VTEnd)
	if ttb > tte || vtb > vte {
		return 0
	}
	return float64(tte-ttb+1) * float64(vte-vtb+1)
}
