package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/temporal"
	"repro/internal/types"
)

const (
	// sampleEvery is how often a read's answer is kept for checking.
	sampleEvery = 4
	// mixedReadRate is the mixed-tcp reader's arrival rate: a read waits
	// for the writer's open transaction, so one connection sustains a few
	// hundred reads a second, and this leaves room for a host that runs
	// twice as slow before the backlog grows.
	mixedReadRate = 120
	// txnInserts is the number of INSERTs in each mixed-tcp writer
	// transaction; txnRollbackPct of them end in ROLLBACK WORK. The writer
	// waits writerThink between transactions, which keeps the table inside
	// the buffer pool for the whole run.
	txnInserts     = 3
	txnRollbackPct = 10
	writerThink    = 8 * time.Millisecond
)

// monthWindow is the selective probe region: a month of transaction time
// and the four months of valid time leading up to its end.
func monthWindow(d chronon.Instant) temporal.Extent {
	return temporal.Extent{TTBegin: d, TTEnd: d + 30, VTBegin: d - 120, VTEnd: d + 30}
}

// queries walks the generator's query regions in order from a worker's
// own starting point, so every run uses each of the generator's query
// classes in the same proportion; a random pick would let the few classes
// that match a third of the table swing the mix from run to run.
type queries struct {
	all  []temporal.Extent
	next int
}

func newQueries(p *phase, worker int) *queries {
	return &queries{all: p.gen.Queries, next: worker * len(p.gen.Queries) / 2}
}

func (q *queries) pick() temporal.Extent {
	e := q.all[q.next%len(q.all)]
	q.next++
	return e
}

// deck deals operation kinds in fixed proportions: every round of
// len(cards) deals holds each kind exactly as often as its weight, in an
// order shuffled by the worker's seeded stream. A run's mix therefore does
// not drift with the draw, only its order does.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for kind, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// embExec runs one statement on an embedded session: a prepared statement
// through ExecutePrepared, ad-hoc text through Engine.ParseSQL and
// Session.ExecStmt (which is what Session.Exec does).
func (p *phase) embExec(s *engine.Session, op int64, prepared, text string, args ...types.Datum) (*engine.Result, error) {
	if prepared != "" {
		t := p.tr.now()
		res, err := s.ExecutePrepared(context.Background(), prepared, args)
		p.tr.end("exec", op, t)
		return res, err
	}
	t := p.tr.now()
	st, err := p.db.e.ParseSQL(text)
	p.tr.end("parse", op, t)
	if err != nil {
		return nil, err
	}
	t = p.tr.now()
	res, err := s.ExecStmt(st)
	p.tr.end("exec", op, t)
	return res, err
}

// account adds a TCP statement's round trip and the server-side profile
// carried in its Done frame.
func (st *stats) account(profile string, rtt time.Duration) {
	st.stmts++
	var elapsed time.Duration
	var ok bool
	for _, f := range strings.Fields(profile) {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "elapsed":
			d, err := time.ParseDuration(v)
			elapsed, ok = d, err == nil
		case "scanned":
			n, _ := strconv.ParseUint(v, 10, 64)
			st.scanned += n
		case "returned":
			n, _ := strconv.ParseUint(v, 10, 64)
			st.ret += n
		}
	}
	if ok {
		st.profiled++
		st.rttNs += int64(rtt)
		st.serverNs += int64(elapsed)
	}
}

// timed runs one TCP statement and accounts it.
func timed(st *stats, call func() (*client.Result, error)) (*client.Result, error) {
	start := time.Now()
	res, err := call()
	if err != nil {
		return nil, err
	}
	st.account(res.Profile, time.Since(start))
	return res, nil
}

func tcpExec(c *client.Conn, st *stats, text string) (*client.Result, error) {
	return timed(st, func() (*client.Result, error) { return c.Exec(text) })
}

func dial(p *phase) (*client.Conn, error) {
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		return nil, err
	}
	return client.Dial(p.addr, reg)
}

// read-embedded -----------------------------------------------------------

// Read statement kinds and their shares (percent) of read-embedded.
const (
	readProbe = iota // prepared ContainedIn probe of a month window
	readSlice        // ad-hoc Overlaps timeslice as literal text
	readCount        // prepared COUNT(*) over Overlaps
	readSeq          // seqscan COUNT(*) on the unindexed cat column
)

var readMix = []struct {
	table  string
	kind   int
	weight int
}{
	{"g", readProbe, 32}, {"g", readSlice, 16}, {"g", readCount, 16}, {"g", readSeq, 2},
	{"r", readProbe, 16}, {"r", readSlice, 8}, {"r", readCount, 8}, {"r", readSeq, 1},
}

// readWorker is one embedded session in a closed loop of reads, two thirds
// on the GR-tree table and one third on the R*-tree table (readMix). An
// R*-tree read takes several times as long as a GR-tree read, so the R*-tree
// third takes most of the read time and the latency tail; an even split
// would put the median in the gap between the two tables' latencies. Probes
// are half of each table's mix so that the median falls inside their mode
// rather than on the edge between them and the cheap timeslices.
type readWorker struct {
	p    *phase
	s    *engine.Session
	rng  *rand.Rand
	deck *deck
	q    *queries
	n    int
}

func readWorkers(p *phase) ([]worker, error) {
	var ws []worker
	for i := 0; i < 2; i++ {
		rng := newRand(p.cfg.seed, i)
		weights := make([]int, len(readMix))
		for k, m := range readMix {
			weights[k] = m.weight
		}
		w := &readWorker{p: p, s: p.db.e.NewSession(), rng: rng, deck: newDeck(rng, weights...), q: newQueries(p, i)}
		ws = append(ws, w)
		for _, t := range p.wl.tables {
			for name, q := range map[string]string{
				"probe_" + t.name: "SELECT id FROM " + t.name + " WHERE ContainedIn(x, ?)",
				"count_" + t.name: "SELECT COUNT(*) FROM " + t.name + " WHERE Overlaps(x, ?)",
			} {
				if _, err := w.s.Prepare(name, q); err != nil {
					for _, w := range ws {
						w.close()
					}
					return nil, err
				}
			}
		}
	}
	return ws, nil
}

func (w *readWorker) close() { w.s.Close() }

func (w *readWorker) loop(until time.Time, st *stats) {
	p, ctx := w.p, w.s.Context()
	for time.Now().Before(until) {
		mix := readMix[w.deck.deal()]
		table := mix.table
		var prepared, text string
		var arg types.Datum
		sm := sample{table: table, acked: -1}
		switch mix.kind {
		case readSeq:
			sm.pred, sm.cat, sm.count = "cat", w.rng.Int63n(100), true
			text = fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE cat = %d`, table, sm.cat)
		case readProbe:
			sm.pred, sm.q = "ContainedIn", monthWindow(w.q.pick().TTBegin)
			prepared, arg = "probe_"+table, sm.q.String()
		case readSlice:
			sm.pred, sm.q = "Overlaps", w.q.pick()
			text = fmt.Sprintf(`SELECT id FROM %s WHERE Overlaps(x, '%s')`, table, sm.q)
		case readCount:
			sm.pred, sm.q, sm.count = "Overlaps", w.q.pick(), true
			prepared, arg = "count_"+table, sm.q.String()
		}
		op := p.newOp()
		start, ts := time.Now(), p.tr.now()
		p.tr.bind(ctx, op)
		var res *engine.Result
		var err error
		if prepared != "" {
			res, err = p.embExec(w.s, op, prepared, "", arg)
		} else {
			res, err = p.embExec(w.s, op, "", text)
		}
		p.tr.unbind(ctx)
		p.tr.end("op", op, ts)
		lat := time.Since(start)
		st.attempted++
		st.stmts++
		if err != nil {
			st.fail(err)
			continue
		}
		st.done(lat, false)
		if res.Stats != nil {
			st.scanned += res.Stats.RowsScanned
			st.ret += res.Stats.RowsReturned
		}
		if w.n++; w.n%sampleEvery == 0 {
			if sm.count {
				sm.n = countOf(res.Rows)
			} else {
				sm.ids = idsOf(res.Rows)
			}
			st.samples = append(st.samples, sm)
		}
	}
}

// write-tcp ---------------------------------------------------------------

// writeWorker is one TCP connection in a closed loop of autocommit DML on
// both tables: INSERTs (80%), and UPDATEs (10%) and DELETEs (10%) of rows
// this worker owns, located through the index with Equal(x, extent).
type writeWorker struct {
	p     *phase
	c     *client.Conn
	rng   *rand.Rand
	deck  *deck // per table: insert 40, update 5, delete 5
	owned map[string][]int64
}

func writeWorkers(p *phase) ([]worker, error) {
	var ws []worker
	for i := 0; i < 2; i++ {
		c, err := dial(p)
		if err != nil {
			for _, w := range ws {
				w.close()
			}
			return nil, err
		}
		rng := newRand(p.cfg.seed, i)
		var weights []int
		for range p.wl.tables {
			weights = append(weights, 40, 5, 5)
		}
		w := &writeWorker{p: p, c: c, rng: rng, deck: newDeck(rng, weights...), owned: map[string][]int64{}}
		for _, t := range p.wl.tables {
			for id := int64(1 + i); id <= int64(p.rows()); id += 2 {
				w.owned[t.name] = append(w.owned[t.name], id)
			}
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func (w *writeWorker) close() { w.c.Close() }

func (w *writeWorker) loop(until time.Time, st *stats) {
	p := w.p
	for time.Now().Before(until) {
		card := w.deck.deal()
		table := p.wl.tables[card/3].name
		op := p.newOp()
		start, ts := time.Now(), p.tr.now()
		var err error
		switch {
		case card%3 == 0 || len(w.owned[table]) == 0:
			err = w.insert(table, st)
		case card%3 == 1:
			err = w.update(table, st)
		default:
			err = w.delete(table, st)
		}
		p.tr.end("op", op, ts)
		lat := time.Since(start)
		st.attempted++
		if err != nil {
			st.fail(err)
			continue
		}
		st.done(lat, true)
		st.rowsWritten++
	}
}

// affected records a wrong answer when a DML statement touched other than
// exactly one row.
func affected(st *stats, res *client.Result, what string) {
	if res.Affected != 1 {
		st.problems = append(st.problems, fmt.Sprintf("%s affected %d rows, want 1", what, res.Affected))
	}
}

func (w *writeWorker) insert(table string, st *stats) error {
	id, ext := w.p.nextID.Add(1), w.p.nextExtent()
	q := fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d, '%s')`, table, id, id%100, ext)
	res, err := tcpExec(w.c, st, q)
	if err != nil {
		return err
	}
	affected(st, res, q)
	w.p.db.model.put(table, id, row{cat: id % 100, ext: ext})
	w.owned[table] = append(w.owned[table], id)
	return nil
}

func (w *writeWorker) update(table string, st *stats) error {
	id := w.owned[table][w.rng.Intn(len(w.owned[table]))]
	old, _ := w.p.db.model.get(table, id)
	ext := w.p.nextExtent()
	q := fmt.Sprintf(`UPDATE %s SET x = '%s' WHERE Equal(x, '%s') AND id = %d`, table, ext, old.ext, id)
	res, err := tcpExec(w.c, st, q)
	if err != nil {
		return err
	}
	affected(st, res, q)
	w.p.db.model.put(table, id, row{cat: old.cat, ext: ext})
	return nil
}

func (w *writeWorker) delete(table string, st *stats) error {
	ids := w.owned[table]
	i := w.rng.Intn(len(ids))
	id := ids[i]
	old, _ := w.p.db.model.get(table, id)
	q := fmt.Sprintf(`DELETE FROM %s WHERE Equal(x, '%s') AND id = %d`, table, old.ext, id)
	res, err := tcpExec(w.c, st, q)
	if err != nil {
		return err
	}
	affected(st, res, q)
	w.p.db.model.del(table, id)
	ids[i] = ids[len(ids)-1]
	w.owned[table] = ids[:len(ids)-1]
	return nil
}

// mixed-tcp ---------------------------------------------------------------

// mixedReader is one TCP connection in an open loop at mixedReadRate,
// sending prepared ContainedIn probes and COUNT(*) over Overlaps. Each read
// is timed from when it was due.
type mixedReader struct {
	p            *phase
	c            *client.Conn
	probe, count *client.Stmt
	deck         *deck // probe 1, count 1
	q            *queries
	n            int
}

// mixedWriter is one TCP connection in a closed loop of explicit
// transactions: BEGIN WORK, txnInserts INSERTs, then COMMIT WORK or, in
// txnRollbackPct percent, ROLLBACK WORK, with writerThink between them.
type mixedWriter struct {
	p    *phase
	c    *client.Conn
	deck *deck // commit 100-txnRollbackPct, roll back txnRollbackPct
}

func mixedWorkers(p *phase) ([]worker, error) {
	table := p.wl.tables[0].name
	rc, err := dial(p)
	if err != nil {
		return nil, err
	}
	r := &mixedReader{p: p, c: rc, deck: newDeck(newRand(p.cfg.seed, 0), 1, 1), q: newQueries(p, 0)}
	if r.probe, err = rc.Prepare("probe", "SELECT id FROM "+table+" WHERE ContainedIn(x, ?)"); err == nil {
		r.count, err = rc.Prepare("count", "SELECT COUNT(*) FROM "+table+" WHERE Overlaps(x, ?)")
	}
	if err != nil {
		rc.Close()
		return nil, err
	}
	wc, err := dial(p)
	if err != nil {
		rc.Close()
		return nil, err
	}
	return []worker{r, &mixedWriter{p: p, c: wc, deck: newDeck(newRand(p.cfg.seed, 1), 100-txnRollbackPct, txnRollbackPct)}}, nil
}

func (r *mixedReader) close() { r.c.Close() }

func (r *mixedReader) loop(until time.Time, st *stats) {
	p := r.p
	period := time.Second / mixedReadRate
	begin := time.Now()
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * period)
		if !due.Before(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sm := sample{table: p.wl.tables[0].name, acked: p.db.model.ackedCount()}
		stmt := r.probe
		if r.deck.deal() == 0 {
			sm.pred, sm.q = "ContainedIn", monthWindow(r.q.pick().TTBegin)
		} else {
			sm.pred, sm.q, sm.count = "Overlaps", r.q.pick(), true
			stmt = r.count
		}
		op := p.newOp()
		sent, ts := time.Now(), p.tr.now()
		st.late = append(st.late, sent.Sub(due))
		res, err := timed(st, func() (*client.Result, error) { return stmt.Exec(sm.q.String()) })
		p.tr.end("op", op, ts)
		lat := time.Since(due)
		st.attempted++
		if err != nil {
			st.fail(err)
			continue
		}
		st.done(lat, false)
		if r.n++; r.n%sampleEvery == 0 {
			if sm.count {
				sm.n = countOf(res.Rows)
			} else {
				sm.ids = idsOf(res.Rows)
			}
			st.samples = append(st.samples, sm)
		}
	}
}

func (w *mixedWriter) close() { w.c.Close() }

func (w *mixedWriter) loop(until time.Time, st *stats) {
	p := w.p
	table := p.wl.tables[0].name
	for time.Now().Before(until) {
		op := p.newOp()
		start, ts := time.Now(), p.tr.now()
		rows, err := w.txn(table, st)
		p.tr.end("op", op, ts)
		lat := time.Since(start)
		st.attempted++
		if err != nil {
			st.fail(err)
			if _, rerr := w.c.Exec(`ROLLBACK WORK`); rerr == nil {
				p.db.model.rollback(rows)
			}
			continue
		}
		st.done(lat, true)
		st.rowsWritten += len(rows)
		time.Sleep(writerThink)
	}
}

// txn runs one writer transaction and records its rows as committed or
// rolled back once the server acknowledges the outcome.
func (w *mixedWriter) txn(table string, st *stats) ([]ackedRow, error) {
	var rows []ackedRow
	if _, err := tcpExec(w.c, st, `BEGIN WORK`); err != nil {
		return nil, err
	}
	for k := 0; k < txnInserts; k++ {
		id, ext := w.p.nextID.Add(1), w.p.nextExtent()
		q := fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d, '%s')`, table, id, id%100, ext)
		res, err := tcpExec(w.c, st, q)
		if err != nil {
			return rows, err
		}
		affected(st, res, q)
		rows = append(rows, ackedRow{table: table, id: id, r: row{cat: id % 100, ext: ext}})
	}
	if w.deck.deal() == 1 {
		if _, err := tcpExec(w.c, st, `ROLLBACK WORK`); err != nil {
			return rows, err
		}
		w.p.db.model.rollback(rows)
		return rows, nil
	}
	if _, err := tcpExec(w.c, st, `COMMIT WORK`); err != nil {
		return rows, err
	}
	w.p.db.model.commit(rows)
	return rows, nil
}
