package rtree

import (
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/temporal"
)

// Walk visits every node depth-first in pre-order (a node before its
// children, children in entry order) with its id, level and entries. The
// walk is not epoch-checked.
func (t *Tree[K, X]) Walk(fn func(id nodestore.NodeID, level int, entries []Entry[K]) error) error {
	return t.walk(t.root, nil, fn)
}

// walk is Walk over the subtree at id, descending only into children whose
// key passes descend (nil: every child).
func (t *Tree[K, X]) walk(id nodestore.NodeID, descend func(K) bool, fn func(nodestore.NodeID, int, []Entry[K]) error) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if err := fn(n.id, n.level, n.entries); err != nil {
		return err
	}
	if n.level == 0 {
		return nil
	}
	for _, e := range n.entries {
		if descend != nil && !descend(e.Key) {
			continue
		}
		if err := t.walk(e.Child(), descend, fn); err != nil {
			return err
		}
	}
	return nil
}

// WalkLeaves visits every leaf entry (UPDATE STATISTICS histogram
// collection). The walk is unordered and not epoch-checked — statistics are
// estimates, not answers.
func (t *Tree[K, X]) WalkLeaves(fn func(Entry[K]) error) error {
	return t.Walk(func(_ nodestore.NodeID, level int, entries []Entry[K]) error {
		if level != 0 {
			return nil
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	})
}

// Index-only aggregation (am_aggregate): COUNT is answered by traversing
// internal nodes and leaves without ever resolving payloads to heap tuples,
// and MIN/MAX by locating the boundary leaf entry under the qualification.
// The traversal is structure-sensitive — a concurrent split or condensation
// bumps the tree epoch and the result can no longer be trusted — so every
// entry point returns ok=false when the epoch moved, and the caller falls
// back to an ordinary tuple drain.

// AggCount counts the leaf entries the matcher accepts without visiting
// tuples. Subtrees whose bound satisfies covered (every descendant is known
// to qualify) are summed without per-entry evaluation; partially covered
// subtrees descend with the internal pruning test and evaluate leaves
// exactly. ok is false when the tree changed structurally during the
// traversal.
func (t *Tree[K, X]) AggCount(m Matcher[K], covered func(bound K) bool) (int64, bool, error) {
	epoch := t.epoch
	var count int64
	// all marks a covered subtree: every entry below it counts.
	var walk func(id nodestore.NodeID, all bool) error
	walk = func(id nodestore.NodeID, all bool) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.level == 0 && all {
			count += int64(len(n.entries))
			return nil
		}
		for _, e := range n.entries {
			switch {
			case n.level == 0:
				if m.LeafMatch(e.Key) {
					count++
				}
			case all || m.InternalMatch(e.Key):
				if err := walk(e.Child(), all || covered(e.Key)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if ok, err := t.settled(epoch, walk(t.root, false)); !ok {
		return 0, false, err
	}
	return count, true, nil
}

// settled judges an aggregate traversal that started at epoch: when the
// structure moved under it, any error is a symptom, not a verdict — decline
// (ok=false, no error) and let the caller drain tuples.
func (t *Tree[K, X]) settled(epoch uint64, err error) (bool, error) {
	if t.epoch != epoch {
		return false, nil
	}
	return err == nil, err
}

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf key under the algebra's lexicographic key order. found is
// false when no entry qualifies; ok is false when the tree changed
// structurally.
func (t *Tree[K, X]) AggExtreme(m Matcher[K], wantMax bool) (best K, found, ok bool, err error) {
	epoch := t.epoch
	err = t.walk(t.root, m.InternalMatch, func(_ nodestore.NodeID, level int, entries []Entry[K]) error {
		for _, e := range entries {
			if level != 0 || !m.LeafMatch(e.Key) {
				continue
			}
			if !found || (wantMax && t.alg.Less(best, e.Key)) || (!wantMax && t.alg.Less(e.Key, best)) {
				best, found = e.Key, true
			}
		}
		return nil
	})
	if ok, err = t.settled(epoch, err); !ok {
		var zero K
		return zero, false, false, err
	}
	return best, found, true, nil
}

// LevelStats aggregates one tree level (level 0 = leaves).
type LevelStats struct {
	Level   int
	Nodes   int
	Entries int
	// Area is the total area of the level's node bounds, resolved under the
	// context Stats was given.
	Area float64
	// Overlap is the total pairwise intersection area between sibling
	// bounds at the level — the "overlap" goodness measure of Section 3.
	Overlap float64
}

// Stats summarises the tree structure and its goodness measures.
type Stats struct {
	Height      int
	Nodes       int
	LeafEntries int
	PerLevel    []LevelStats // ascending by level
}

// Stats walks the tree and computes structure, area and overlap per level,
// resolving node bounds under x. The root's own bound has no parent entry,
// so the root level reports zero area.
func (t *Tree[K, X]) Stats(x X) (Stats, error) {
	st := Stats{Height: t.height, PerLevel: make([]LevelStats, t.height)}
	bounds := make([][]temporal.Shape, t.height)
	err := t.Walk(func(id nodestore.NodeID, level int, entries []Entry[K]) error {
		if level >= t.height {
			return fmt.Errorf("%s: node %d at level %d, height %d", t.format.Name, id, level, t.height)
		}
		st.Nodes++
		ls := &st.PerLevel[level]
		ls.Nodes++
		ls.Entries += len(entries)
		if level == 0 {
			st.LeafEntries += len(entries)
			return nil
		}
		for _, e := range entries {
			bounds[level-1] = append(bounds[level-1], t.alg.Resolve(e.Key, x))
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	for lvl := range st.PerLevel {
		ls := &st.PerLevel[lvl]
		ls.Level = lvl
		bs := bounds[lvl]
		for _, s := range bs {
			ls.Area += s.Area()
		}
		for i := 0; i < len(bs); i++ {
			for j := i + 1; j < len(bs); j++ {
				ls.Overlap += bs[i].IntersectionArea(bs[j])
			}
		}
	}
	return st, nil
}

// Check validates the tree's structural invariants under x (am_check):
// every child key is covered by its parent entry, node fills respect the
// minimum (policy permitting), levels are consistent, and the leaf count
// matches the recorded size. It returns a descriptive error on the first
// violation.
func (t *Tree[K, X]) Check(x X) error {
	name := t.format.Name
	count := 0
	var walk func(id nodestore.NodeID, expectLevel int, isRoot bool, parent *K) error
	walk = func(id nodestore.NodeID, expectLevel int, isRoot bool, parent *K) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.level != expectLevel {
			return fmt.Errorf("%s: node %d at level %d, expected %d", name, n.id, n.level, expectLevel)
		}
		if n.leaf != (n.level == 0) {
			return fmt.Errorf("%s: node %d leaf flag inconsistent with level %d", name, n.id, n.level)
		}
		if !isRoot && t.cfg.DeletePolicy != NoCondense && len(n.entries) < t.minFill() {
			return fmt.Errorf("%s: node %d underfull (%d < %d)", name, n.id, len(n.entries), t.minFill())
		}
		if len(n.entries) > t.cfg.MaxEntries {
			return fmt.Errorf("%s: node %d overfull (%d > %d)", name, n.id, len(n.entries), t.cfg.MaxEntries)
		}
		for _, e := range n.entries {
			if parent != nil && !t.alg.Covers(*parent, e.Key, x) {
				return fmt.Errorf("%s: node %d entry %v escapes parent bound %v", name, n.id, e.Key, *parent)
			}
			if n.leaf {
				count++
				continue
			}
			k := e.Key
			if err := walk(e.Child(), n.level-1, false, &k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1, true, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("%s: leaf count %d != recorded size %d", name, count, t.size)
	}
	return nil
}
