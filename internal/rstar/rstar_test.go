package rstar

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nodestore"
)

func smallConfig() Config {
	return Config{MaxEntries: 8, MinFillPct: 40, ReinsertPct: 30}
}

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := Create(nodestore.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomRect(rng *rand.Rand, extent int64) Rect {
	x := rng.Int63n(extent)
	y := rng.Int63n(extent)
	return Rect{XMin: x, XMax: x + rng.Int63n(40), YMin: y, YMax: y + rng.Int63n(40)}
}

func bruteForce(model map[Payload]Rect, op Op, q Rect) map[Payload]bool {
	out := make(map[Payload]bool)
	for p, r := range model {
		if leafTest(op, r, q) {
			out[p] = true
		}
	}
	return out
}

func equalSets(a []Payload, b map[Payload]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

func TestRectAlgebra(t *testing.T) {
	a := Rect{0, 10, 0, 10}
	b := Rect{5, 15, 5, 15}
	if !a.Overlaps(b) || a.IntersectionArea(b) != 36 {
		t.Fatalf("intersection: %v", a.IntersectionArea(b))
	}
	u := a.Union(b)
	if u != (Rect{0, 15, 0, 15}) {
		t.Fatalf("union: %v", u)
	}
	if !u.Contains(a) || !u.Contains(b) || a.Contains(b) {
		t.Fatal("contains")
	}
	if a.Area() != 121 || a.Margin() != 22 {
		t.Fatalf("area %v margin %v", a.Area(), a.Margin())
	}
	e := Rect{5, 4, 0, 0}
	if !e.Empty() || e.Area() != 0 || e.Margin() != 0 {
		t.Fatal("empty rect")
	}
	if !a.Contains(e) {
		t.Fatal("everything contains empty")
	}
	if a.Enlargement(b) != u.Area()-a.Area() {
		t.Fatal("enlargement")
	}
	if a.String() == "" {
		t.Fatal("string")
	}
}

func TestInsertSearchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]Rect)
	for i := 0; i < 400; i++ {
		r := randomRect(rng, 500)
		p := Payload(i + 1)
		if err := tr.Insert(r, p); err != nil {
			t.Fatal(err)
		}
		model[p] = r
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 || tr.Size() != 400 {
		t.Fatalf("height %d size %d", tr.Height(), tr.Size())
	}
	for trial := 0; trial < 40; trial++ {
		q := randomRect(rng, 500)
		for _, op := range []Op{OpOverlaps, OpEqual, OpContains, OpContainedIn} {
			got, err := tr.SearchAll(op, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSets(got, bruteForce(model, op, q)) {
				t.Fatalf("%v(%v) mismatch", op, q)
			}
		}
	}
}

func TestDeleteAndCondense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]Rect)
	for i := 0; i < 300; i++ {
		r := randomRect(rng, 400)
		p := Payload(i + 1)
		if err := tr.Insert(r, p); err != nil {
			t.Fatal(err)
		}
		model[p] = r
	}
	for p := Payload(1); p <= 250; p++ {
		ok, _, err := tr.Delete(model[p], p)
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", p, ok, err)
		}
		delete(model, p)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 50 {
		t.Fatalf("size %d", tr.Size())
	}
	for trial := 0; trial < 20; trial++ {
		q := randomRect(rng, 400)
		got, err := tr.SearchAll(OpOverlaps, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(got, bruteForce(model, OpOverlaps, q)) {
			t.Fatal("post-delete mismatch")
		}
	}
	// Missing delete.
	if ok, _, _ := tr.Delete(Rect{1, 2, 1, 2}, 9999); ok {
		t.Fatal("phantom delete")
	}
}

func TestPersistence(t *testing.T) {
	store := nodestore.NewMem()
	tr, _ := Create(store, smallConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if err := tr.Insert(randomRect(rng, 300), Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	tr2, err := Open(store, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Size() != 100 || tr2.Height() != tr.Height() {
		t.Fatal("reopen mismatch")
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nodestore.NewMem(), smallConfig()); err == nil {
		t.Fatal("open empty store must fail")
	}
}

func TestCursorProtocol(t *testing.T) {
	tr := newTestTree(t, smallConfig())
	for i := int64(0); i < 60; i++ {
		if err := tr.Insert(Rect{i, i + 5, i, i + 5}, Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := tr.Search(OpOverlaps, Rect{0, 1000, 0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 60 {
		t.Fatalf("scan count %d", n)
	}
	cur.Reset()
	if _, ok, _ := cur.Next(); !ok {
		t.Fatal("reset cursor must produce again")
	}
	if _, err := tr.Search(OpOverlaps, Rect{5, 4, 0, 0}); err == nil {
		t.Fatal("empty query must fail")
	}
}

func TestStatsLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := newTestTree(t, smallConfig())
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randomRect(rng, 300), Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != tr.Height() {
		t.Fatalf("levels %d height %d", len(ls), tr.Height())
	}
	total := 0
	for _, l := range ls {
		if l.Level == 0 {
			total = l.Entries
		}
	}
	if total != 200 {
		t.Fatalf("leaf entries %d", total)
	}
	for _, op := range []Op{OpOverlaps, OpEqual, OpContains, OpContainedIn, Op(9)} {
		_ = op.String()
	}
}

func TestNoReinsertConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.ReinsertPct = 0
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(5))
	model := make(map[Payload]Rect)
	for i := 0; i < 200; i++ {
		r := randomRect(rng, 300)
		p := Payload(i + 1)
		if err := tr.Insert(r, p); err != nil {
			t.Fatal(err)
		}
		model[p] = r
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	q := Rect{0, 400, 0, 400}
	got, _ := tr.SearchAll(OpOverlaps, q)
	if !equalSets(got, bruteForce(model, OpOverlaps, q)) {
		t.Fatal("no-reinsert tree mismatch")
	}
}

func TestEmptyRectInsertFails(t *testing.T) {
	tr := newTestTree(t, smallConfig())
	if err := tr.Insert(Rect{5, 4, 0, 0}, 1); err == nil {
		t.Fatal("empty rect insert must fail")
	}
}

// TestStatsDeterministicAscending: Stats returns one entry per level in
// ascending level order, identically on every call, so summed overlap
// figures do not depend on map iteration order.
func TestStatsDeterministicAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := newTestTree(t, smallConfig())
	for i := 0; i < 400; i++ {
		if err := tr.Insert(randomRect(rng, 500), Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != tr.Height() || tr.Height() < 3 {
		t.Fatalf("%d levels for height %d", len(first), tr.Height())
	}
	for i, l := range first {
		if l.Level != i {
			t.Fatalf("level %d reported at position %d: %+v", l.Level, i, first)
		}
	}
	for n := 0; n < 20; n++ {
		again, err := tr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("Stats call %d differs:\n%+v\n%+v", n, first, again)
		}
	}
}
