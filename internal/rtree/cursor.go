package rtree

import "repro/internal/nodestore"

// Matcher is a search qualification over keys: LeafMatch is the exact test
// on a data key; InternalMatch is the pruning test on a bounding key and must
// hold whenever any descendant leaf could match.
type Matcher[K any] interface {
	LeafMatch(k K) bool
	InternalMatch(bound K) bool
}

// Cursor stores a qualification and tree-traversal information; qualifying
// entries are retrieved by calling Next (Appendix A). Node contents are
// snapshotted as visited, so in-node deletions by the owning scan are safe;
// structural changes (splits, condensation) bump the tree epoch and make the
// cursor restart, skipping already-returned entries (Section 5.5).
type Cursor[K comparable, X any] struct {
	t     *Tree[K, X]
	match Matcher[K]

	stack    []frame[K]
	epoch    uint64
	started  bool
	returned map[uint64]bool
	restarts int
}

type frame[K any] struct {
	entries []Entry[K]
	level   int
	idx     int
}

// Search creates a cursor over the matcher (Tree.search() of Appendix A).
func (t *Tree[K, X]) Search(m Matcher[K]) *Cursor[K, X] {
	return &Cursor[K, X]{t: t, match: m, epoch: t.epoch, returned: make(map[uint64]bool)}
}

// Restarts reports how often the cursor restarted due to tree condensation
// (experiment P4's measurement).
func (c *Cursor[K, X]) Restarts() int { return c.restarts }

// Reset rewinds the cursor, forgetting returned-entry bookkeeping (the
// blades' am_rescan).
func (c *Cursor[K, X]) Reset() {
	c.restart()
	c.returned = make(map[uint64]bool)
	c.restarts = 0
}

// restart re-seeds the traversal after a structural change, keeping the
// returned set so qualifying entries are not produced twice.
func (c *Cursor[K, X]) restart() {
	c.stack = nil
	c.started = false
	c.epoch = c.t.epoch
	c.restarts++
}

func (c *Cursor[K, X]) push(id nodestore.NodeID) error {
	n, err := c.t.readNode(id)
	if err != nil {
		return err
	}
	c.stack = append(c.stack, frame[K]{entries: n.entries, level: n.level})
	return nil
}

// Next returns the next qualifying entry (Cursor.next() of Appendix A).
// ok is false when the scan is exhausted.
func (c *Cursor[K, X]) Next() (Entry[K], bool, error) {
	if c.epoch != c.t.epoch {
		c.restart()
	}
	if !c.started {
		c.started = true
		if err := c.push(c.t.root); err != nil {
			return Entry[K]{}, false, err
		}
	}
	for len(c.stack) > 0 {
		fr := &c.stack[len(c.stack)-1]
		if fr.idx >= len(fr.entries) {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		e := fr.entries[fr.idx]
		fr.idx++
		if fr.level == 0 {
			if c.match.LeafMatch(e.Key) && !c.returned[e.Ref] {
				c.returned[e.Ref] = true
				return e, true, nil
			}
			continue
		}
		if c.match.InternalMatch(e.Key) {
			if err := c.push(e.Child()); err != nil {
				return Entry[K]{}, false, err
			}
			// Re-check epoch: push read a node; if the tree changed between
			// frames (scan-interleaved deletes), restart cleanly.
			if c.epoch != c.t.epoch {
				c.restart()
				if err := c.push(c.t.root); err != nil {
					return Entry[K]{}, false, err
				}
				c.started = true
			}
		}
	}
	return Entry[K]{}, false, nil
}

// NextBatch fills dst with the next qualifying entries — the blades'
// am_getmulti service. The matches of each visited leaf node are drained in
// one pass over its snapshot (instead of re-entering the traversal per
// entry); the slow path delegates to Next for descent, restart and
// returned-entry bookkeeping. It returns the number filled; fewer than
// len(dst) means the scan is exhausted.
func (c *Cursor[K, X]) NextBatch(dst []Entry[K]) (int, error) {
	n := 0
	for n < len(dst) {
		// Fast path: the top of the stack is a leaf frame and the tree has
		// not changed shape — drain its matches in one visit.
		if len(c.stack) > 0 && c.epoch == c.t.epoch {
			fr := &c.stack[len(c.stack)-1]
			if fr.level == 0 {
				for fr.idx < len(fr.entries) && n < len(dst) {
					e := fr.entries[fr.idx]
					fr.idx++
					if c.match.LeafMatch(e.Key) && !c.returned[e.Ref] {
						c.returned[e.Ref] = true
						dst[n] = e
						n++
					}
				}
				if n == len(dst) {
					return n, nil
				}
				// Frame exhausted; fall through to Next to pop and descend.
			}
		}
		e, ok, err := c.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dst[n] = e
		n++
	}
	return n, nil
}

// Collect runs a cursor to completion and returns the payloads (tests,
// benchmarks and experiments).
func Collect[P ~uint64, K comparable, X any](c *Cursor[K, X]) ([]P, error) {
	var out []P
	for {
		e, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, P(e.Ref))
	}
}
