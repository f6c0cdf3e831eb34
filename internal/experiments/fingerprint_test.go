package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"sort"
	"testing"

	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/temporal"
)

// The fingerprint tests pin the exact on-disk and I/O behaviour of both trees
// on fixed seeds: a SHA-256 over every live node page plus the meta record,
// the node reads of every query, and the P4 restart counts. Any change to
// choose-subtree, split, forced reinsertion, condensation, STR packing, the
// node codecs or the cursor shows up here, so a refactor of the tree code
// must leave every constant untouched.

// pageStore is an in-memory node store that tracks its live node ids so the
// test can hash every page.
type pageStore struct {
	*nodestore.MemStore
	live map[nodestore.NodeID]bool
}

func newPageStore() *pageStore {
	return &pageStore{MemStore: nodestore.NewMem(), live: make(map[nodestore.NodeID]bool)}
}

func (s *pageStore) Alloc() (nodestore.NodeID, error) {
	id, err := s.MemStore.Alloc()
	if err == nil {
		s.live[id] = true
	}
	return id, err
}

func (s *pageStore) Free(id nodestore.NodeID) error {
	delete(s.live, id)
	return s.MemStore.Free(id)
}

// digest hashes the meta record and every live page in node-id order.
func (s *pageStore) digest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	meta, err := s.Meta()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(meta)
	ids := make([]nodestore.NodeID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	buf := make([]byte, nodestore.NodeSize)
	for _, id := range ids {
		if err := s.MemStore.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		writeU64(h, uint64(id))
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// readsDigest runs each query once and hashes the per-query node-read
// counts; it also returns their total.
func readsDigest(t *testing.T, s *pageStore, n int, query func(i int) error) (string, uint64) {
	t.Helper()
	h := sha256.New()
	var total uint64
	for i := 0; i < n; i++ {
		s.ResetStats()
		if err := query(i); err != nil {
			t.Fatal(err)
		}
		r := s.Stats().NodeReads
		writeU64(h, r)
		total += r
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16], total
}

func fingerprintWorkload() *Workload {
	cfg := DefaultWorkload()
	cfg.Tuples, cfg.Days, cfg.Seed = 1200, 120, 7
	return Generate(cfg)
}

type fingerprint struct {
	pages    string
	reads    string
	total    uint64
	restarts int
}

func (f fingerprint) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d}", f.pages, f.reads, f.total, f.restarts)
}

func checkFingerprint(t *testing.T, name string, got, want fingerprint) {
	t.Helper()
	if got != want {
		t.Errorf("%s fingerprint changed:\n got  %v\n want %v", name, got, want)
	}
}

// grtReplay replays the workload's inserts and logical deletions (delete of
// the growing extent, insert of the closed one) into a small-fanout GR-tree,
// so splits, forced reinsertion and condensation all happen.
func grtReplay(t *testing.T, wl *Workload, pol grtree.DeletePolicy) (*grtree.Tree, *pageStore) {
	t.Helper()
	s := newPageStore()
	cfg := grtree.DefaultConfig()
	cfg.MaxEntries, cfg.DeletePolicy = 8, pol
	tr, err := grtree.Create(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range wl.Events {
		if !ev.Insert {
			removed, _, err := tr.Delete(ev.Extent, grtree.Payload(ev.Payload), ev.Day)
			if err != nil || !removed {
				t.Fatalf("delete %d: removed=%v err=%v", ev.Payload, removed, err)
			}
			ev.Extent = ev.Closed
		}
		if err := tr.Insert(ev.Extent, grtree.Payload(ev.Payload), ev.Day); err != nil {
			t.Fatal(err)
		}
	}
	return tr, s
}

func grtQueries(t *testing.T, tr *grtree.Tree, s *pageStore, wl *Workload) (string, uint64) {
	return readsDigest(t, s, len(wl.Queries), func(i int) error {
		_, err := tr.SearchAll(grtree.Predicate{Op: grtree.OpOverlaps, Query: wl.Queries[i]}, wl.EndCT)
		return err
	})
}

func TestFingerprintGRTree(t *testing.T) {
	wl := fingerprintWorkload()
	cut := wl.Config.Start + (wl.EndCT-wl.Config.Start)/2
	purge := grtree.Predicate{Op: grtree.OpOverlaps, Query: temporal.Extent{
		TTBegin: wl.Config.Start - 200, TTEnd: cut, VTBegin: wl.Config.Start - 400, VTEnd: wl.EndCT + 400,
	}}
	want := map[grtree.DeletePolicy][2]fingerprint{
		grtree.RestartOnCondense: {
			{"2bbf7c7af1fe5adc", "e458f2e158747073", 13408, 0},
			{"f7d16466e11e5483", "0d348d9d31f2b509", 4122, 194},
		},
		grtree.RestartAlways: {
			{"2bbf7c7af1fe5adc", "e458f2e158747073", 13408, 0},
			{"f7d16466e11e5483", "0d348d9d31f2b509", 4122, 760},
		},
		grtree.NoCondense: {
			{"e8b2c56221f041f0", "2d3a29f9f3904817", 14222, 0},
			{"9aa0ad202cf8d800", "5c9fb9b06f66105c", 4906, 124},
		},
	}
	for _, pol := range []grtree.DeletePolicy{grtree.RestartOnCondense, grtree.RestartAlways, grtree.NoCondense} {
		tr, s := grtReplay(t, wl, pol)
		if err := tr.Check(wl.EndCT); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		var got [2]fingerprint
		got[0].pages = s.digest(t)
		got[0].reads, got[0].total = grtQueries(t, tr, s, wl)

		_, restarts, err := tr.DeleteWhere(purge, wl.EndCT)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(wl.EndCT); err != nil {
			t.Fatalf("%v after purge: %v", pol, err)
		}
		got[1].pages = s.digest(t)
		got[1].reads, got[1].total = grtQueries(t, tr, s, wl)
		got[1].restarts = restarts
		for i, phase := range []string{"replay", "purge"} {
			checkFingerprint(t, fmt.Sprintf("GR-tree %v %s", pol, phase), got[i], want[pol][i])
		}
	}
}

func TestFingerprintGRTreeBulk(t *testing.T) {
	wl := fingerprintWorkload()
	payloads := make([]uint64, 0, len(wl.Final))
	for p := range wl.Final {
		payloads = append(payloads, p)
	}
	sort.Slice(payloads, func(a, b int) bool { return payloads[a] < payloads[b] })
	items := make([]grtree.BulkItem, len(payloads))
	for i, p := range payloads {
		items[i] = grtree.BulkItem{Extent: wl.Final[p], Payload: grtree.Payload(p)}
	}
	for _, maxEntries := range []int{8, grtree.Capacity} {
		s := newPageStore()
		cfg := grtree.DefaultConfig()
		cfg.MaxEntries = maxEntries
		tr, err := grtree.Create(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(items, wl.EndCT); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(wl.EndCT); err != nil {
			t.Fatal(err)
		}
		var got fingerprint
		got.pages = s.digest(t)
		got.reads, got.total = grtQueries(t, tr, s, wl)
		want := map[int]fingerprint{
			8:               {"46b003c05efac880", "73b912849ca4de96", 14007, 0},
			grtree.Capacity: {"ace24e9e7b0c494f", "dd059ac8eec98cba", 1962, 0},
		}[maxEntries]
		checkFingerprint(t, fmt.Sprintf("GR-tree bulk maxentries=%d", maxEntries), got, want)
	}
}

// rstRect maps an extent the way the max-timestamp baseline does.
func rstRect(e temporal.Extent, maxTS chronon.Instant) rstar.Rect {
	tte, vte := e.TTEnd, e.VTEnd
	if tte == chronon.UC {
		tte = maxTS
	}
	if vte == chronon.NOW {
		vte = maxTS
	}
	return rstar.Rect{XMin: int64(e.TTBegin), XMax: int64(tte), YMin: int64(e.VTBegin), YMax: int64(vte)}
}

func TestFingerprintRStar(t *testing.T) {
	wl := fingerprintWorkload()
	maxTS := chronon.FromDate(9999, 12, 31)
	s := newPageStore()
	tr, err := rstar.Create(s, rstar.Config{MaxEntries: 8, MinFillPct: 40, ReinsertPct: 30})
	if err != nil {
		t.Fatal(err)
	}
	rects := make(map[uint64]rstar.Rect)
	for _, ev := range wl.Events {
		if !ev.Insert {
			removed, _, err := tr.Delete(rects[ev.Payload], rstar.Payload(ev.Payload))
			if err != nil || !removed {
				t.Fatalf("delete %d: removed=%v err=%v", ev.Payload, removed, err)
			}
			ev.Extent = ev.Closed
		}
		rects[ev.Payload] = rstRect(ev.Extent, maxTS)
		if err := tr.Insert(rects[ev.Payload], rstar.Payload(ev.Payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	queries := func(tr *rstar.Tree) (string, uint64) {
		return readsDigest(t, s, len(wl.Queries), func(i int) error {
			_, err := tr.SearchAll(rstar.OpOverlaps, rstRect(wl.Queries[i], maxTS))
			return err
		})
	}
	var got fingerprint
	got.pages = s.digest(t)
	got.reads, got.total = queries(tr)
	checkFingerprint(t, "R*-tree replay", got, fingerprint{"f2568d3f5164cfda", "73534ac014b3b194", 21031, 0})

	payloads := make([]uint64, 0, len(rects))
	for p := range rects {
		payloads = append(payloads, p)
	}
	sort.Slice(payloads, func(a, b int) bool { return payloads[a] < payloads[b] })
	items := make([]rstar.BulkItem, len(payloads))
	for i, p := range payloads {
		items[i] = rstar.BulkItem{Rect: rects[p], Payload: rstar.Payload(p)}
	}
	s = newPageStore()
	tr, err = rstar.Create(s, rstar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	got = fingerprint{}
	got.pages = s.digest(t)
	got.reads, got.total = queries(tr)
	checkFingerprint(t, "R*-tree bulk", got, fingerprint{"9ec0e0e0020154b0", "a933b04942b3f990", 2121, 0})
}

// TestFingerprintRStarNearForever inserts rectangles whose coordinates all
// sit within a few hundred chronons of chronon.Forever, where a
// maximum-timestamp index keeps its substituted ends. Distinct int64 values
// there collapse to one float64, so the split's sort keys must stay int64:
// float64 keys would all tie, keep insertion order, and choose other splits.
func TestFingerprintRStarNearForever(t *testing.T) {
	s := newPageStore()
	tr, err := rstar.Create(s, rstar.Config{MaxEntries: 8, MinFillPct: 40, ReinsertPct: 30})
	if err != nil {
		t.Fatal(err)
	}
	top := int64(chronon.Forever)
	rect := func(i int64) rstar.Rect {
		x, y := top-300+(i*37)%251, top-300+(i*53)%241
		return rstar.Rect{XMin: x, XMax: x + (i*7)%40, YMin: y, YMax: y + (i*11)%50}
	}
	for i := int64(0); i < 300; i++ {
		if err := tr.Insert(rect(i), rstar.Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 300; i += 3 {
		if removed, _, err := tr.Delete(rect(i), rstar.Payload(i+1)); err != nil || !removed {
			t.Fatalf("delete %d: removed=%v err=%v", i+1, removed, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	var got fingerprint
	got.pages = s.digest(t)
	got.reads, got.total = readsDigest(t, s, 40, func(i int) error {
		_, err := tr.SearchAll(rstar.OpOverlaps, rect(int64(1000+i)))
		return err
	})
	checkFingerprint(t, "R*-tree near Forever", got, fingerprint{"70a7db2c4665ee22", "ca1553a91626c29f", 294, 0})
}

// TestFingerprintP4 pins experiment P4's restart counts and I/O under the
// three deletion policies.
func TestFingerprintP4(t *testing.T) {
	rows, err := RunP4(io.Discard, 1500)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(rows)
	want := "[{restart-on-condense 34 6140 12 2.27} {restart-always 957 7980 12 2.27} {no-condense 14 2907 14 2.31}]"
	if got != want {
		t.Errorf("P4 rows changed:\n got  %s\n want %s", got, want)
	}
}
