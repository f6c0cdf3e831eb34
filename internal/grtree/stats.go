package grtree

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// TreeStats summarises the tree structure and its goodness measures; the
// per-level areas and overlaps are measured at the time Stats was given.
type TreeStats struct {
	rtree.Stats
	// DeadSpaceRatio estimates the fraction of leaf-bound area not covered
	// by any data region (Section 3's "dead space"), when sampled.
	DeadSpaceRatio float64
}

// Stats walks the tree and computes structure and overlap statistics at ct.
// deadSpaceSamples > 0 additionally estimates the dead-space ratio by Monte
// Carlo sampling with the given seed.
func (t *Tree) Stats(ct chronon.Instant, deadSpaceSamples int, seed int64) (TreeStats, error) {
	now := ctx{ct: ct, horizon: ct}
	st, err := t.Tree.Stats(now)
	ts := TreeStats{Stats: st}
	if err != nil {
		return ts, err
	}
	rb, err := t.RootBound(now)
	if err != nil {
		return ts, err
	}
	root := rb.Resolve(ct)
	ts.PerLevel[len(ts.PerLevel)-1].Area = root.Area()
	if deadSpaceSamples <= 0 || root.Empty() {
		return ts, nil
	}
	var leafBounds, data []temporal.Shape
	err = t.Walk(func(_ nodestore.NodeID, level int, entries []Entry) error {
		for _, e := range entries {
			switch level {
			case 0:
				data = append(data, e.Key.Resolve(ct))
			case 1:
				leafBounds = append(leafBounds, e.Key.Resolve(ct))
			}
		}
		return nil
	})
	if err != nil {
		return ts, err
	}
	if t.Height() == 1 {
		leafBounds = []temporal.Shape{root}
	}
	ts.DeadSpaceRatio = deadSpace(root, leafBounds, data, deadSpaceSamples, seed)
	return ts, nil
}

// deadSpace estimates the fraction of total leaf-bound area that is covered
// by some leaf node's bound but by no data region.
func deadSpace(root temporal.Shape, leafBounds, dataShapes []temporal.Shape, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	bb := root.BoundingBox()
	w := bb.TTEnd - bb.TTBegin + 1
	h := bb.VTEnd - bb.VTBegin + 1
	if w <= 0 || h <= 0 {
		return 0
	}
	inBound, dead := 0, 0
	for i := 0; i < samples; i++ {
		tt := bb.TTBegin + rng.Int63n(w)
		vv := bb.VTBegin + rng.Int63n(h)
		covered := false
		for _, b := range leafBounds {
			if b.ContainsPoint(tt, vv) {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		inBound++
		hit := false
		for _, d := range dataShapes {
			if d.ContainsPoint(tt, vv) {
				hit = true
				break
			}
		}
		if !hit {
			dead++
		}
	}
	if inBound == 0 {
		return 0
	}
	return float64(dead) / float64(inBound)
}

// Dump renders the tree structure (Figure 5 style) for grtinspect.
func (t *Tree) Dump(ct chronon.Instant) (string, error) {
	var b strings.Builder
	err := t.Walk(func(id nodestore.NodeID, level int, entries []Entry) error {
		indent := strings.Repeat("  ", t.Height()-1-level)
		kind, target := "node", "node"
		if level == 0 {
			kind, target = "leaf", "row"
		}
		fmt.Fprintf(&b, "%s%s %d (level %d, %d entries)\n", indent, kind, id, level, len(entries))
		for _, e := range entries {
			fmt.Fprintf(&b, "%s  %v -> %s %d\n", indent, e.Key, target, e.Ref)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}
