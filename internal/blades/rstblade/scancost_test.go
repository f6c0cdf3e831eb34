package rstblade

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rstar"
)

// TestScanCostUsesConfiguredFanout: rst_scancost estimates the leaf count
// from the index's own maxentries, not the page capacity, so a small-fanout
// index is not reported as roughly Capacity/maxentries times cheaper than it
// is. The returned and traced cost must follow height + 0.2*(size/8 + 1).
func TestScanCostUsesConfiguredFanout(t *testing.T) {
	cfg, err := parseConfig(map[string]string{"maxentries": "8"})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := rstar.Create(nodestore.NewMem(), cfg.treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const size = 296 // 296/8 + 1 = 38 leaves, exactly
	for i := 0; i < size; i++ {
		x, y := rng.Int63n(1000), rng.Int63n(1000)
		if err := tree.Insert(rstar.Rect{XMin: x, XMax: x + 10, YMin: y, YMax: y + 10}, rstar.Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var trace bytes.Buffer
	tracer := mi.NewTracer(&trace)
	tracer.SetLevel("rst", 2)
	id := &am.IndexDesc{Name: "rst_ix", UserData: &openState{tree: tree, cfg: cfg}}
	cost, err := rstScanCost(mi.NewContext(1, tracer), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := float64(tree.Size())/8 + 1
	want := float64(tree.Height()) + 0.2*leaves
	if cost != want {
		t.Fatalf("rst_scancost = %v, want height %d + 0.2*(%d/8 + 1) = %v", cost, tree.Height(), size, want)
	}
	line := fmt.Sprintf("rst_scancost rst_ix: %.2f (height %d, ~38 leaves)", want, tree.Height())
	if !strings.Contains(trace.String(), line) {
		t.Fatalf("trace %q lacks %q", trace.String(), line)
	}
}
