package rtree

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoad builds the tree from scratch using sort-tile-recursive packing
// (the "bulk loading algorithm" Section 5.5 recommends for vacuuming: drop
// the index and recreate it in one pass): entries are sorted by first-axis
// centre, tiled into √n slabs, each slab sorted by second-axis centre and cut
// into node-sized runs, level by level. The tree must be empty.
func (t *Tree[K, X]) BulkLoad(entries []Entry[K], x X) error {
	if t.size != 0 {
		return fmt.Errorf("%s: bulk load into non-empty tree (%d entries)", t.format.Name, t.size)
	}
	if len(entries) == 0 {
		return nil
	}
	fill := max(t.cfg.MaxEntries*4/5, 2) // pack to ~80%; even runs stay above min fill
	size := len(entries)
	oldRoot := t.root
	level := 0
	for {
		parents, err := t.packLevel(entries, level, fill, x)
		if err != nil {
			return err
		}
		if len(parents) == 1 {
			t.root = parents[0].Child()
			t.height = level + 1
			t.size = size
			t.epoch++
			if err := t.store.Free(oldRoot); err != nil {
				return err
			}
			return t.saveMeta()
		}
		entries = parents
		level++
	}
}

// EvenPartition splits n items into runs of at most maxRun, with run sizes
// as equal as possible (so no run falls below half of maxRun): the slab and
// node sizes of the STR packer.
func EvenPartition(n, maxRun int) []int {
	k := max((n+maxRun-1)/maxRun, 1)
	base := n / k
	extra := n % k
	runs := make([]int, k)
	for i := range runs {
		runs[i] = base
		if i < extra {
			runs[i]++
		}
	}
	return runs
}

// packLevel tiles the entries into nodes of the given level and returns the
// parent entries for the next level up (sort-tile-recursive).
func (t *Tree[K, X]) packLevel(entries []Entry[K], level, fill int, x X) ([]Entry[K], error) {
	centres := make([][2]float64, len(entries))
	for i, e := range entries {
		centres[i][0], centres[i][1] = centre(t.alg.Resolve(e.Key, x))
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return centres[order[a]][0] < centres[order[b]][0] })

	nNodes := (len(entries) + fill - 1) / fill
	nSlabs := int(math.Ceil(math.Sqrt(float64(nNodes))))
	slabSizes := EvenPartition(len(entries), (len(entries)+nSlabs-1)/nSlabs)

	var parents []Entry[K]
	pos := 0
	for _, slabLen := range slabSizes {
		slab := append([]int(nil), order[pos:pos+slabLen]...)
		pos += slabLen
		sort.SliceStable(slab, func(a, b int) bool { return centres[slab[a]][1] < centres[slab[b]][1] })
		r := 0
		for _, runLen := range EvenPartition(len(slab), fill) {
			id, err := t.store.Alloc()
			if err != nil {
				return nil, err
			}
			n := &node[K]{id: id, leaf: level == 0, level: level}
			for _, ix := range slab[r : r+runLen] {
				n.entries = append(n.entries, entries[ix])
			}
			r += runLen
			if err := t.writeNode(n); err != nil {
				return nil, err
			}
			parents = append(parents, Entry[K]{Key: t.bound(n, x), Ref: uint64(id)})
		}
	}
	return parents, nil
}
