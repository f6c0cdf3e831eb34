package rstar

import (
	"math/rand"
	"testing"

	"repro/internal/rtree"
)

// FuzzEvenPartition pins the STR run-partitioning invariants: the runs
// cover n exactly, none exceeds maxRun, none is empty, and the sizes are
// balanced to within one.
func FuzzEvenPartition(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(7, 3)
	f.Add(100, 8)
	f.Add(64, 64)
	f.Add(65, 64)
	f.Add(4096, 6)
	f.Fuzz(func(t *testing.T, n, maxRun int) {
		if n < 0 || n > 1<<20 || maxRun < 1 || maxRun > 1<<20 {
			t.Skip()
		}
		runs := rtree.EvenPartition(n, maxRun)
		wantRuns := (n + maxRun - 1) / maxRun
		if wantRuns < 1 {
			wantRuns = 1
		}
		if len(runs) != wantRuns {
			t.Fatalf("EvenPartition(%d, %d): %d runs, want %d", n, maxRun, len(runs), wantRuns)
		}
		sum, min, max := 0, runs[0], runs[0]
		for _, r := range runs {
			sum += r
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		if sum != n {
			t.Fatalf("EvenPartition(%d, %d): runs sum to %d", n, maxRun, sum)
		}
		if max > maxRun {
			t.Fatalf("EvenPartition(%d, %d): run of %d exceeds maxRun", n, maxRun, max)
		}
		if n > 0 && min < 1 {
			t.Fatalf("EvenPartition(%d, %d): empty run", n, maxRun)
		}
		if max-min > 1 {
			t.Fatalf("EvenPartition(%d, %d): unbalanced runs (min %d, max %d)", n, maxRun, min, max)
		}
	})
}

// FuzzBulkLoad drives packLevel through BulkLoad at arbitrary sizes and
// seeds: the tree must pass Check (bounds containment, uniform leaf depth,
// fill limits), report the loaded size, and return every payload on a
// full-space overlap query.
func FuzzBulkLoad(f *testing.F) {
	f.Add(0, int64(1))
	f.Add(1, int64(2))
	f.Add(6, int64(3))  // exactly one ~80%-filled node for MaxEntries=8
	f.Add(7, int64(4))  // one over
	f.Add(36, int64(5)) // one full level
	f.Add(500, int64(6))
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 0 || n > 2000 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var items []BulkItem
		model := make(map[Payload]bool, n)
		for i := 0; i < n; i++ {
			items = append(items, BulkItem{Rect: randomRect(rng, 1000), Payload: Payload(i + 1)})
			model[Payload(i+1)] = true
		}
		tr := newTestTree(t, smallConfig())
		if err := tr.BulkLoad(items); err != nil {
			t.Fatalf("BulkLoad(%d items): %v", n, err)
		}
		if tr.Size() != n {
			t.Fatalf("size %d after loading %d", tr.Size(), n)
		}
		if n == 0 {
			return
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("check after BulkLoad(%d): %v", n, err)
		}
		got, err := tr.SearchAll(OpOverlaps, Rect{XMin: 0, XMax: 1 << 40, YMin: 0, YMax: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("BulkLoad(%d): full-space search returned %d payloads", n, len(got))
		}
		for _, p := range got {
			if !model[p] {
				t.Fatalf("BulkLoad(%d): unknown payload %d returned", n, p)
			}
		}
	})
}
