package main

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/temporal"
	"repro/internal/types"
)

type row struct {
	cat int64
	ext temporal.Extent
}

type ackedRow struct {
	table string
	id    int64
	r     row
}

// model is what the database must hold: the initial rows plus every
// acknowledged write.
type model struct {
	mu   sync.Mutex
	ct   chronon.Instant
	rows map[string]map[int64]row
	// acked lists the rows of committed writer transactions in commit order
	// (mixed-tcp), so a read can be checked against what was acknowledged
	// before it was sent. initial marks rows loaded at set-up.
	acked      []ackedRow
	rolledBack []ackedRow
	initial    int64
}

func newModel(ct chronon.Instant) *model {
	return &model{ct: ct, rows: map[string]map[int64]row{}}
}

func (m *model) put(table string, id int64, r row) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rows[table] == nil {
		m.rows[table] = map[int64]row{}
	}
	m.rows[table][id] = r
}

func (m *model) get(table string, id int64) (row, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.rows[table][id]
	return r, ok
}

func (m *model) del(table string, id int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.rows[table], id)
}

// commit records a committed transaction's rows.
func (m *model) commit(rows []ackedRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range rows {
		m.rows[a.table][a.id] = a.r
	}
	m.acked = append(m.acked, rows...)
}

func (m *model) rollback(rows []ackedRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rolledBack = append(m.rolledBack, rows...)
}

func (m *model) ackedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.acked)
}

func (m *model) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.rows {
		n += len(t)
	}
	return n
}

// sample is one read's answer, kept for checking after the timed region.
type sample struct {
	table string
	pred  string // "Overlaps", "ContainedIn" or "cat"
	q     temporal.Extent
	cat   int64
	count bool // the answer is a COUNT(*), not a list of ids
	n     int64
	ids   []int64
	// acked is how many writer rows were acknowledged when the read was
	// sent; -1 when nothing writes the table.
	acked int
}

func matches(pred string, q temporal.Extent, cat int64, r row, ct chronon.Instant) bool {
	switch pred {
	case "Overlaps":
		return grtree.Predicate{Op: grtree.OpOverlaps, Query: q}.Match(r.ext, ct)
	case "ContainedIn":
		return grtree.Predicate{Op: grtree.OpContainedIn, Query: q}.Match(r.ext, ct)
	}
	return r.cat == cat
}

// want returns the sorted ids of the rows of rows matching s's predicate.
func (s *sample) want(rows map[int64]row, ct chronon.Instant) []int64 {
	var ids []int64
	for id, r := range rows {
		if matches(s.pred, s.q, s.cat, r, ct) {
			ids = append(ids, id)
		}
	}
	return sortedIDs(ids)
}

// checkSamples compares each sampled read with the model. A read of a static
// table must match exactly; a read beside a writer must see every row
// acknowledged before it was sent and nothing that was never committed.
func (p *phase) checkSamples(samples []sample) []string {
	m := p.db.model
	var probs []string
	for _, s := range samples {
		upper := s.want(m.rows[s.table], m.ct)
		lower := upper
		if s.acked >= 0 {
			seen := map[int64]row{}
			for id, r := range m.rows[s.table] {
				if id <= m.initial {
					seen[id] = r
				}
			}
			for _, a := range m.acked[:s.acked] {
				if a.table == s.table {
					seen[a.id] = a.r
				}
			}
			lower = s.want(seen, m.ct)
		} else if s.pred == "Overlaps" && p.wl.extra == 0 {
			// The table holds exactly the generator's final state.
			if n := p.gen.TrueMatches(s.q, m.ct); n != len(upper) {
				probs = append(probs, fmt.Sprintf("model disagrees with the generator on Overlaps(%v): %d vs %d", s.q, len(upper), n))
			}
		}
		if s.count {
			if s.n < int64(len(lower)) || s.n > int64(len(upper)) {
				probs = append(probs, fmt.Sprintf("%s COUNT(*) %s(%v) = %d, want %d..%d", s.table, s.pred, s.q, s.n, len(lower), len(upper)))
			}
			continue
		}
		got := sortedIDs(s.ids)
		if !subset(lower, got) || !subset(got, upper) {
			probs = append(probs, fmt.Sprintf("%s %s(%v) returned %d ids, want %d..%d matching rows", s.table, s.pred, s.q, len(got), len(lower), len(upper)))
		}
	}
	return probs
}

// subset reports whether sorted a is contained in sorted b.
func subset(a, b []int64) bool {
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}

// everything is a ground query region that overlaps every stored extent.
var everything = temporal.Extent{
	TTBegin: chronon.FromDate(1900, 1, 1), TTEnd: chronon.FromDate(9000, 1, 1),
	VTBegin: chronon.FromDate(1900, 1, 1), VTEnd: chronon.FromDate(9000, 1, 1),
}

// checkTables runs CHECK INDEX on every index and compares the rows an
// index scan returns, the indexed COUNT(*) and the seqscan count with the
// model.
func (p *phase) checkTables() ([]string, error) {
	s := p.db.e.NewSession()
	defer s.Close()
	var probs []string
	for _, t := range p.wl.tables {
		if _, err := s.Exec("CHECK INDEX " + t.index); err != nil {
			probs = append(probs, fmt.Sprintf("CHECK INDEX %s: %v", t.index, err))
		}
		want := (&sample{pred: "Overlaps", q: everything}).want(p.db.model.rows[t.name], p.db.model.ct)
		res, err := s.Exec(fmt.Sprintf(`SELECT id FROM %s WHERE Overlaps(x, '%s')`, t.name, everything))
		if err != nil {
			return nil, err
		}
		if res.Plan == nil || res.Plan.Chosen() == nil {
			probs = append(probs, fmt.Sprintf("%s: the full-range Overlaps did not use index %s", t.name, t.index))
		}
		if got := idsOf(res.Rows); !slices.Equal(got, want) {
			probs = append(probs, fmt.Sprintf("%s: index scan returned %d rows, model holds %d", t.name, len(got), len(want)))
		}
		counts := map[string]string{
			"index":   fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE Overlaps(x, '%s')`, t.name, everything),
			"seqscan": `SELECT COUNT(*) FROM ` + t.name,
		}
		for kind, q := range counts {
			res, err := s.Exec(q)
			if err != nil {
				return nil, err
			}
			if n := countOf(res.Rows); n != int64(len(want)) {
				probs = append(probs, fmt.Sprintf("%s: %s COUNT(*) = %d, model holds %d", t.name, kind, n, len(want)))
			}
		}
	}
	return probs, nil
}

// checkDurability crashes the engine with a transaction still open, reopens
// the directory and compares every table with the model: each acknowledged
// write must be there, and nothing rolled back or never committed.
func (p *phase) checkDurability() ([]string, error) {
	db, first := p.db, p.wl.tables[0]
	s := db.e.NewSession()
	if p.cfg.fault == "drop-write" {
		// Lose one acknowledged write behind the model's back.
		var victim int64
		for id := range db.model.rows[first.name] {
			victim = max(victim, id)
		}
		if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE id = %d`, first.name, victim)); err != nil {
			return nil, err
		}
	}
	if _, err := s.Exec(`BEGIN WORK`); err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		id := p.nextID.Add(1)
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d, '%s')`, first.name, id, id%100, p.nextExtent())); err != nil {
			return nil, err
		}
	}
	db.e.CrashForTesting()

	e, err := openEngine(db.dir, db.clock, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen after crash: %w", err)
	}
	defer e.Close()
	rs := e.NewSession()
	defer rs.Close()
	var probs []string
	for _, t := range p.wl.tables {
		res, err := rs.Exec(`SELECT id, cat, x FROM ` + t.name)
		if err != nil {
			return nil, err
		}
		got := map[int64]row{}
		for _, r := range res.Rows {
			ext, err := extentOf(r[2])
			if err != nil {
				return nil, err
			}
			got[r[0].(int64)] = row{cat: r[1].(int64), ext: ext}
		}
		missing, extra, undone := 0, 0, 0
		for id, r := range db.model.rows[t.name] {
			if g, ok := got[id]; !ok || g != r {
				missing++
			}
		}
		for id := range got {
			if _, ok := db.model.rows[t.name][id]; !ok {
				extra++
			}
		}
		for _, a := range db.model.rolledBack {
			if _, ok := got[a.id]; ok && a.table == t.name {
				undone++
			}
		}
		if missing > 0 || extra > 0 {
			probs = append(probs, fmt.Sprintf("after recovery %s lost or changed %d acknowledged rows and holds %d rows never committed (%d of them rolled back)",
				t.name, missing, extra, undone))
		}
		if _, err := rs.Exec("CHECK INDEX " + t.index); err != nil {
			probs = append(probs, fmt.Sprintf("after recovery CHECK INDEX %s: %v", t.index, err))
		}
	}
	return probs, nil
}

func extentOf(d types.Datum) (temporal.Extent, error) {
	o, ok := d.(types.Opaque)
	if !ok {
		return temporal.Extent{}, fmt.Errorf("extent column holds %T", d)
	}
	return grtblade.DecodeExtent(o.Data)
}

// idsOf returns the sorted ids of a result whose first column is id.
func idsOf(rows [][]types.Datum) []int64 {
	ids := make([]int64, 0, len(rows))
	for _, r := range rows {
		ids = append(ids, r[0].(int64))
	}
	return sortedIDs(ids)
}

// countOf returns a COUNT(*) result's value, or -1 for any other shape.
func countOf(rows [][]types.Datum) int64 {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return -1
	}
	n, _ := rows[0][0].(int64)
	return n
}
