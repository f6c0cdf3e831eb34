package rtree

// Delete removes the leaf entry holding exactly key k and this payload. It
// reports whether an entry was removed and whether the tree was condensed
// (entries re-inserted because a node underflowed) — the signal a blade's
// am_delete uses to decide whether the scan cursor must be reset (Section
// 5.5, Table 5 step 5).
func (t *Tree[K, X]) Delete(k K, payload uint64, x X) (removed, condensed bool, err error) {
	root, err := t.readNode(t.root)
	if err != nil {
		return false, false, err
	}
	path, n, err := t.findLeaf(root, nil, k, payload, x)
	if err != nil || n == nil {
		return false, false, err
	}

	// Remove the entry from the leaf.
	for i, le := range n.entries {
		if le.Ref == payload && le.Key == k {
			n.entries = append(n.entries[:i], n.entries[i+1:]...)
			break
		}
	}
	t.size--
	if t.cfg.DeletePolicy == RestartAlways {
		t.epoch++
	}

	condensed, err = t.condense(path, n, x)
	if err != nil {
		return true, condensed, err
	}
	return true, condensed, t.saveMeta()
}

// findLeaf locates the leaf containing (k, payload) and the path to it,
// descending only into children whose bounds contain k; the leaf is nil
// when there is none.
func (t *Tree[K, X]) findLeaf(n *node[K], path []pathStep[K], k K, payload uint64, x X) ([]pathStep[K], *node[K], error) {
	if n.level == 0 {
		for _, le := range n.entries {
			if le.Ref == payload && le.Key == k {
				return path, n, nil
			}
		}
		return nil, nil, nil
	}
	for idx, e := range n.entries {
		if !t.alg.Contains(e.Key, k, x) {
			continue
		}
		child, err := t.readNode(e.Child())
		if err != nil {
			return nil, nil, err
		}
		p, leaf, err := t.findLeaf(child, append(path, pathStep[K]{n: n, idx: idx}), k, payload, x)
		if err != nil || leaf != nil {
			return p, leaf, err
		}
	}
	return nil, nil, nil
}

// condense repairs the tree after a removal: underfull nodes are unlinked
// and their surviving entries re-inserted at their levels (R* CondenseTree);
// under NoCondense only empty nodes are unlinked. It reports whether any
// structural change happened, and bumps the epoch if so.
func (t *Tree[K, X]) condense(path []pathStep[K], n *node[K], x X) (bool, error) {
	type orphan struct {
		e     Entry[K]
		level int
	}
	var orphans []orphan
	structural := false

	for i := len(path); i >= 0; i-- {
		isRoot := n.id == t.root
		under := len(n.entries) < t.minFill()
		if t.cfg.DeletePolicy == NoCondense {
			under = len(n.entries) == 0
		}
		if !isRoot && under {
			// Unlink n from its parent and orphan its entries. Only upward
			// steps follow, so the parent's shifted child indexes are never
			// used again.
			parent := path[i-1].n
			idx := path[i-1].idx
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: n.level})
			}
			if err := t.store.Free(n.id); err != nil {
				return structural, err
			}
			structural = true
			n = parent
			continue
		}
		// Node survives: rewrite it and refresh the parent's bound.
		if err := t.writeNode(n); err != nil {
			return structural, err
		}
		if !isRoot {
			parent := path[i-1].n
			// idx may have shifted if an earlier sibling was unlinked at
			// this level; locate n in the parent.
			for j := range parent.entries {
				if parent.entries[j].Child() == n.id {
					parent.entries[j] = Entry[K]{Key: t.bound(n, x), Ref: uint64(n.id)}
					break
				}
			}
			n = parent
			continue
		}
		break
	}

	// Shrink the root while it is an internal node with a single child.
	for {
		root, err := t.readNode(t.root)
		if err != nil {
			return structural, err
		}
		if root.level == 0 || len(root.entries) != 1 {
			break
		}
		oldRoot := root.id
		t.root = root.entries[0].Child()
		t.height--
		if err := t.store.Free(oldRoot); err != nil {
			return structural, err
		}
		structural = true
	}

	if structural {
		t.epoch++
	}

	// Re-insert orphans at their original levels.
	if len(orphans) > 0 {
		reinserted := make(map[int]bool)
		for _, o := range orphans {
			if err := t.insertAtLevel(o.e, o.level, x, reinserted); err != nil {
				return structural, err
			}
		}
	}
	return structural, t.saveMeta()
}
