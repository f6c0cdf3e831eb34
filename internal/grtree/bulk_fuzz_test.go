package grtree

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// FuzzEvenPartition pins the run-partitioning invariants the STR packer
// relies on: the runs cover n exactly, none exceeds maxRun, none is empty,
// and the sizes are balanced to within one.
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
		if len(runs) < 1 {
			t.Fatalf("EvenPartition(%d, %d): no runs", n, maxRun)
		}
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

// FuzzBulkLoad drives packLevel through BulkLoad with arbitrary item counts
// and seeds: after every load the tree must pass its structural Check
// (bounds contain children, leaf depth uniform, fill respected), report the
// right size, and return exactly the loaded payload set.
func FuzzBulkLoad(f *testing.F) {
	f.Add(0, int64(1))
	f.Add(1, int64(2))
	f.Add(6, int64(3))  // exactly fill for MaxEntries=8
	f.Add(7, int64(4))  // one over
	f.Add(36, int64(5)) // one full level
	f.Add(500, int64(6))
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 0 || n > 2000 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ct := chronon.Instant(300)
		var items []BulkItem
		model := make(map[Payload]bool, n)
		for i := 0; i < n; i++ {
			items = append(items, BulkItem{Extent: randomExtent(rng, ct), Payload: Payload(i + 1)})
			model[Payload(i+1)] = true
		}
		tr := newTestTree(t, smallConfig())
		if err := tr.BulkLoad(items, ct); err != nil {
			t.Fatalf("BulkLoad(%d items): %v", n, err)
		}
		if tr.Size() != n {
			t.Fatalf("size %d after loading %d", tr.Size(), n)
		}
		if n == 0 {
			return
		}
		if err := tr.Check(ct); err != nil {
			t.Fatalf("check after BulkLoad(%d): %v", n, err)
		}
		// Every payload must be reachable: an all-time overlap query returns
		// the full set (extents are valid at ct, so each overlaps itself).
		got, err := tr.SearchAll(Predicate{Op: OpOverlaps, Query: temporal.Extent{
			TTBegin: 0, TTEnd: chronon.UC, VTBegin: 0, VTEnd: chronon.NOW,
		}}, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !payloadSetEqual(got, model) {
			t.Fatalf("BulkLoad(%d): search returned %d of %d payloads", n, len(got), n)
		}
	})
}
