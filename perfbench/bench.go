package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/temporal"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir holds the run's databases; it is removed at the end. spans is
	// where a traced run writes its spans.
	dir, spans string
	// rows overrides every table's initial row count for short test runs
	// (zero keeps the workload's value).
	rows int
	// fault deliberately breaks a run ("wrong-answer", "drop-write") so tests
	// can show the checks catch it.
	fault string
}

// tableDef is one indexed bitemporal table.
type tableDef struct {
	name, am, opclass, space, index string
}

var (
	grtTable = tableDef{"g", grtblade.AmName, "grt_opclass", "gsp", "gi"}
	rstTable = tableDef{"r", rstblade.AmName, "rst_opclass", "rsp", "ri"}
)

// workload is one traffic mix over a freshly loaded database.
type workload struct {
	// rows is the initial row count of each table; extra is how many more
	// generated extents the writers can insert before the pool wraps.
	rows, extra int
	tables      []tableDef
	tcp         bool
	// durable workloads end with a crash and a recovery check.
	durable bool
	// workers opens the workload's sessions or connections.
	workers func(p *phase) ([]worker, error)
}

var workloads = map[string]*workload{
	"read-embedded": {
		rows: 40000, tables: []tableDef{grtTable, rstTable},
		workers: readWorkers,
	},
	"write-tcp": {
		rows: 2000, extra: 60000, tables: []tableDef{grtTable, rstTable},
		tcp: true, durable: true, workers: writeWorkers,
	},
	"mixed-tcp": {
		rows: 2000, extra: 60000, tables: []tableDef{grtTable},
		tcp: true, durable: true, workers: mixedWorkers,
	},
}

// reference is the set-up that setup_s times, the same on every workload: a
// GR-tree and an R*-tree table of 20k rows each, loaded and bulk-indexed.
// At that size the set-up is bound by CPU rather than by the few fsyncs of
// its commits, so disk latency drifting between runs moves it little.
var reference = &workload{rows: 20000, tables: []tableDef{grtTable, rstTable}}

const (
	// setups is how many reference set-ups an untraced run times; setup_s
	// is their median.
	setups    = 3
	poolPages = 256 // engine.Options.PoolPages default, stated in the report
	pageSize  = 4096
)

// worker is one session or connection driving operations.
type worker interface {
	// loop runs operations until the deadline, recording into st.
	loop(until time.Time, st *stats)
	close()
}

// phase is one set-up, timed region and check pass of a workload.
type phase struct {
	cfg   config
	wl    *workload
	tr    *tracer
	gen   *experiments.Workload
	db    *database
	addr  string
	opSeq atomic.Int64
	// nextID and pool hand out fresh row ids and generated extents to
	// writers.
	nextID atomic.Int64
	pool   atomic.Int64
}

func (p *phase) newOp() int64 { return p.opSeq.Add(1) }

// nextExtent returns the next generated extent not used by the initial load.
func (p *phase) nextExtent() temporal.Extent {
	i := p.pool.Add(1) - 1
	n := int64(p.wl.extra)
	return p.gen.Final[uint64(int64(p.rows())+1+i%n)]
}

func (p *phase) rows() int { return p.cfg.rowsOf(p.wl) }

// rowsOf is the initial row count of each of wl's tables in this run.
func (c config) rowsOf(wl *workload) int {
	if c.rows > 0 {
		return c.rows
	}
	return wl.rows
}

// database is an open engine over a directory plus the model of the rows
// it must hold.
type database struct {
	e     *engine.Engine
	dir   string
	clock chronon.Clock
	model *model
}

func openEngine(dir string, clock chronon.Clock, tr *tracer) (*engine.Engine, error) {
	e, err := engine.Open(engine.Options{Dir: dir, Clock: clock, Types: grtblade.RegisterTypes})
	if err != nil {
		return nil, err
	}
	if err := grtblade.Register(e); err != nil {
		e.Close()
		return nil, err
	}
	if err := rstblade.Register(e); err != nil {
		e.Close()
		return nil, err
	}
	if tr != nil {
		// Reload the libraries wrapped before the first index use: the
		// engine binds purpose functions when an index is first opened.
		e.LoadLibrary(grtblade.LibraryPath, tr.wrapLibrary(grtblade.Library(e), "grt_"))
		e.LoadLibrary(rstblade.LibraryPath, tr.wrapLibrary(rstblade.Library(), "rst_"))
	}
	return e, nil
}

// setup creates the tables, loads the initial rows with LOAD and builds each
// index with a bulk CREATE INDEX. It returns the seconds those two steps
// took.
func (p *phase) setup(dir string) (*database, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	clock := chronon.NewVirtualClock(p.gen.EndCT)
	e, err := openEngine(dir, clock, p.tr)
	if err != nil {
		return nil, 0, err
	}
	db := &database{e: e, dir: dir, clock: clock, model: newModel(p.gen.EndCT)}
	db.model.initial = int64(p.rows())
	fail := func(err error) (*database, float64, error) {
		e.Close()
		return nil, 0, err
	}
	var load strings.Builder
	for id := 1; id <= p.rows(); id++ {
		ext := p.gen.Final[uint64(id)]
		fmt.Fprintf(&load, "%d|%d|%s\n", id, id%100, ext)
	}
	file, err := filepath.Abs(filepath.Join(dir, "load.unl"))
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(file, []byte(load.String()), 0o644); err != nil {
		return fail(err)
	}
	s := e.NewSession()
	defer s.Close()
	var took time.Duration
	for _, t := range p.wl.tables {
		if _, err := s.ExecScript(fmt.Sprintf(`CREATE SBSPACE %s; CREATE TABLE %s (id INTEGER, cat INTEGER, x %s)`,
			t.space, t.name, grtblade.TypeName)); err != nil {
			return fail(err)
		}
		start := time.Now()
		if _, err := s.Exec(fmt.Sprintf(`LOAD FROM '%s' INSERT INTO %s`, file, t.name)); err != nil {
			return fail(err)
		}
		if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX %s ON %s(x %s) USING %s (build='bulk') IN %s`,
			t.index, t.name, t.opclass, t.am, t.space)); err != nil {
			return fail(err)
		}
		took += time.Since(start)
		for id := 1; id <= p.rows(); id++ {
			db.model.put(t.name, int64(id), row{cat: int64(id % 100), ext: p.gen.Final[uint64(id)]})
		}
	}
	if err := os.Remove(file); err != nil {
		return fail(err)
	}
	return db, took.Seconds(), nil
}

// stats are the counts and samples of one worker, then of the whole phase.
type stats struct {
	// t0 is when the timed region began; ends holds each operation's
	// completion offset from it, aligned with all.
	t0                 time.Time
	elapsed            time.Duration
	ends               []time.Duration
	mem                []memPoint
	all, reads, writes []time.Duration
	late               []time.Duration // open-loop send lag
	attempted, failed  int
	errs               []string
	stmts              int
	// TCP statements carrying a server profile: their round trips and the
	// server-side elapsed times inside them.
	profiled        int
	rttNs, serverNs int64
	scanned, ret    uint64
	rowsWritten     int
	samples         []sample
	problems        []string // wrong answers found while running
}

// done records one completed operation.
func (s *stats) done(lat time.Duration, write bool) {
	s.all = append(s.all, lat)
	s.ends = append(s.ends, time.Since(s.t0))
	if write {
		s.writes = append(s.writes, lat)
	} else {
		s.reads = append(s.reads, lat)
	}
}

func (s *stats) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *stats) merge(o *stats) {
	s.all = append(s.all, o.all...)
	s.ends = append(s.ends, o.ends...)
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.stmts += o.stmts
	s.profiled += o.profiled
	s.rttNs += o.rttNs
	s.serverNs += o.serverNs
	s.scanned += o.scanned
	s.ret += o.ret
	s.rowsWritten += o.rowsWritten
	s.samples = append(s.samples, o.samples...)
	s.problems = append(s.problems, o.problems...)
}

// drive runs every worker until the deadline, sampling the process's
// memory meanwhile, and merges their stats.
func drive(ws []worker, until time.Time) *stats {
	start := time.Now()
	stop, sampled := make(chan struct{}), make(chan []memPoint)
	go sampleMemory(start, stop, sampled)
	per := make([]*stats, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		per[i] = &stats{t0: start}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(until, per[i])
		}()
	}
	wg.Wait()
	total := &stats{t0: start, elapsed: time.Since(start)}
	close(stop)
	total.mem = <-sampled
	for _, s := range per {
		total.merge(s)
	}
	return total
}

// memPoint is the Go runtime's mapped and unreleased memory at one instant.
type memPoint struct {
	at    time.Duration
	bytes uint64
}

// sampleMemory samples memory every 10ms until stop is closed, then sends
// the samples on out.
func sampleMemory(start time.Time, stop <-chan struct{}, out chan<- []memPoint) {
	ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	var pts []memPoint
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(ms)
		pts = append(pts, memPoint{time.Since(start), ms[0].Value.Uint64() - ms[1].Value.Uint64()})
		select {
		case <-stop:
			out <- pts
			return
		case <-tick.C:
		}
	}
}

// counters is the engine-wide state read around the timed region: the obs
// registry, SYSPTPROF summed per partition kind, and the Go runtime.
type counters struct {
	reg             obs.Snapshot
	heap, index     ptprof
	mallocs, allocB uint64
	gcs             uint32
}

type ptprof struct{ fetches, hits, reads, evictions int64 }

func (db *database) counters() (counters, error) {
	var c counters
	s := db.e.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT kind, fetches, hits, reads, evictions FROM sysptprof`)
	if err != nil {
		return c, err
	}
	for _, r := range res.Rows {
		pt := &c.heap
		if r[0] == "sbspace" {
			pt = &c.index
		}
		pt.fetches += r[1].(int64)
		pt.hits += r[2].(int64)
		pt.reads += r[3].(int64)
		pt.evictions += r[4].(int64)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB, c.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	c.reg = db.e.Obs().Snapshot()
	return c, nil
}

// phaseResult is what one phase measured and checked.
type phaseResult struct {
	setupSecs float64 // the workload's own set-up, reported but not gated
	st        *stats
	reg       obs.Snapshot // registry delta over the timed region
	heap      ptprof
	index     ptprof
	mallocs   uint64
	allocB    uint64
	gcs       uint32
	trace     traceSummary
	spans     int
	problems  []string // failed answer and durability checks
	liveRows  int
	fileBytes int64
	pages     map[string][2]int64 // table -> heap pages, index pages
}

func (r *phaseResult) opsPerSec() float64 {
	return median(r.st.windows().rates)
}

// newPhase generates the rows and queries of workload wl from the run's
// seed.
func newPhase(cfg config, wl *workload, tr *tracer) *phase {
	genCfg := experiments.DefaultWorkload()
	p := &phase{cfg: cfg, wl: wl, tr: tr}
	genCfg.Tuples = p.rows() + wl.extra
	genCfg.Days = max(genCfg.Tuples/10, 1)
	genCfg.Seed = cfg.seed
	p.gen = experiments.Generate(genCfg)
	p.nextID.Store(int64(p.rows()))
	return p
}

// timeSetups sets up the reference database setups times, each in a fresh
// directory, and returns how long each took.
func timeSetups(cfg config) ([]float64, error) {
	p := newPhase(cfg, reference, nil)
	var secs []float64
	for k := 0; k < setups; k++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("reference-db%d", k))
		db, took, err := p.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("reference set-up: %w", err)
		}
		secs = append(secs, took)
		if err := db.e.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

// runPhase sets up the workload's database, drives the workload through a
// warm-up and the timed region, and checks answers, indexes and durability.
func runPhase(cfg config, wl *workload, tr *tracer, tag string) (*phaseResult, error) {
	p := newPhase(cfg, wl, tr)
	res := &phaseResult{pages: map[string][2]int64{}}
	db, secs, err := p.setup(filepath.Join(cfg.dir, tag+"-db"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.db, res.setupSecs = db, secs
	defer os.RemoveAll(p.db.dir)
	closed := false
	defer func() {
		if !closed {
			p.db.e.Close()
		}
	}()

	stopServer := func() error { return nil }
	if wl.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := server.New(p.db.e, server.Options{})
		p.addr = ln.Addr().String()
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		stopped := false
		stopServer = func() error {
			if stopped {
				return nil
			}
			stopped = true
			err := srv.Shutdown(context.Background())
			if serr := <-served; err == nil {
				err = serr
			}
			return err
		}
		defer stopServer()
	}
	ws, err := wl.workers(p)
	if err != nil {
		return nil, err
	}
	closeWorkers := func() {
		for _, w := range ws {
			w.close()
		}
		ws = nil
	}
	defer closeWorkers()

	// The warm-up is a twenty-fifth of the timed region: 1.6 seconds of a
	// 40-second run. Its answers are checked with the timed region's.
	warm := drive(ws, time.Now().Add(cfg.seconds/25))
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d operations failed: %v", warm.failed, warm.errs)
	}
	tr.reset()
	before, err := p.db.counters()
	if err != nil {
		return nil, err
	}
	res.st = drive(ws, time.Now().Add(cfg.seconds))
	after, err := p.db.counters()
	if err != nil {
		return nil, err
	}
	closeWorkers()
	spans := tr.taken()
	res.trace = summarize(spans)
	res.spans = len(spans)
	if tr != nil {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	res.reg = after.reg.Delta(before.reg)
	res.heap = after.heap.minus(before.heap)
	res.index = after.index.minus(before.index)
	res.mallocs = after.mallocs - before.mallocs
	res.allocB = after.allocB - before.allocB
	res.gcs = after.gcs - before.gcs

	if cfg.fault == "wrong-answer" && len(res.st.samples) > 0 {
		// No row has id -1, and no count is negative.
		res.st.samples[0].n = -1
		res.st.samples[0].ids = append(res.st.samples[0].ids, -1)
	}
	res.problems = append(res.problems, warm.problems...)
	res.problems = append(res.problems, res.st.problems...)
	res.problems = append(res.problems, p.checkSamples(append(warm.samples, res.st.samples...))...)
	probs, err := p.checkTables()
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, probs...)
	res.liveRows = p.db.model.size()
	if res.fileBytes, err = p.dataBytes(res.pages); err != nil {
		return nil, err
	}
	if wl.durable {
		if err := stopServer(); err != nil {
			return nil, err
		}
		probs, err := p.checkDurability()
		closed = true
		if err != nil {
			return nil, err
		}
		res.problems = append(res.problems, probs...)
	} else {
		closed = true
		if err := p.db.e.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (a ptprof) minus(b ptprof) ptprof {
	return ptprof{a.fetches - b.fetches, a.hits - b.hits, a.reads - b.reads, a.evictions - b.evictions}
}

// dataBytes sums the heap and sbspace files and records each table's size
// in pages.
func (p *phase) dataBytes(pages map[string][2]int64) (int64, error) {
	var total int64
	for _, t := range p.wl.tables {
		var pg [2]int64
		for i, f := range []string{"table_" + t.name + ".dat", "sbspace_" + t.space + ".dat"} {
			fi, err := os.Stat(filepath.Join(p.db.dir, f))
			if err != nil {
				return 0, err
			}
			total += fi.Size()
			pg[i] = fi.Size() / pageSize
		}
		pages[t.name] = pg
	}
	return total, nil
}

// newRand gives each worker its own stream derived from the run's seed.
func newRand(seed int64, worker int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(worker) + 1))
}

func sortedIDs(ids []int64) []int64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
