package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported value; n is the sample count behind a percentile
// (0 for everything else).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// percentile returns the nearest-rank p-quantile in microseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[max(k, 0)]) / float64(time.Microsecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowCount is how many equal windows the timed region is split into.
// Throughput, latency percentiles and peak memory are reported as the
// median over the windows, so that a slowdown from outside the process
// that covers fewer than half the windows does not move the run's figure.
// Each gated workload completes over a thousand operations per window in a
// 40-second run, so a window's 99th percentile has over ten samples beyond
// it.
const windowCount = 5

type windows struct {
	rates, p50s, p99s, memMB []float64
	minOps                   int // operations in the emptiest window
}

func (s *stats) windows() windows {
	var w windows
	width := s.elapsed / windowCount
	if width <= 0 {
		return w
	}
	lat := make([][]time.Duration, windowCount)
	for i, end := range s.ends {
		k := min(int(end/width), windowCount-1)
		lat[k] = append(lat[k], s.all[i])
	}
	peak := make([]uint64, windowCount)
	for _, m := range s.mem {
		k := min(int(m.at/width), windowCount-1)
		peak[k] = max(peak[k], m.bytes)
	}
	w.minOps = len(s.all)
	for k := range lat {
		w.rates = append(w.rates, float64(len(lat[k]))/width.Seconds())
		w.p50s = append(w.p50s, percentile(lat[k], 0.50))
		w.p99s = append(w.p99s, percentile(lat[k], 0.99))
		w.memMB = append(w.memMB, float64(peak[k])/(1<<20))
		w.minOps = min(w.minOps, len(lat[k]))
	}
	return w
}

// endToEnd are the metrics a user of the system sees, from an untraced
// phase and the reference set-ups timed before it.
func endToEnd(r *phaseResult, setupSecs []float64) []metric {
	st := r.st
	w := st.windows()
	return []metric{
		{"setup_s", median(setupSecs), "s", len(setupSecs)},
		{"ops_per_s", median(w.rates), "1/s", 0},
		{"lat_p50_us", median(w.p50s), "us", w.minOps},
		{"lat_p99_us", median(w.p99s), "us", w.minOps},
		{"mem_peak_mb", median(w.memMB), "MB", 0},
		{"bytes_per_row", ratio(float64(r.fileBytes), float64(r.liveRows)), "B", 0},
	}
}

// byKind splits latency by operation kind; it is printed with the report
// and left out of the gated metrics because not every workload has both
// kinds.
func byKind(r *phaseResult) []metric {
	st := r.st
	return []metric{
		{"read_p50_us", percentile(st.reads, 0.50), "us", len(st.reads)},
		{"read_p99_us", percentile(st.reads, 0.99), "us", len(st.reads)},
		{"write_p50_us", percentile(st.writes, 0.50), "us", len(st.writes)},
		{"write_p99_us", percentile(st.writes, 0.99), "us", len(st.writes)},
		{"failed_frac", ratio(float64(st.failed), float64(st.attempted)), "frac", st.attempted},
	}
}

// amSlots are the purpose functions whose calls and time are reported.
var amSlots = []string{"am_open", "am_close", "am_beginscan", "am_getnext", "am_getmulti",
	"am_scancost", "am_aggregate", "am_insert", "am_delete"}

// perLayer reads each layer's counts from the registry delta, SYSPTPROF and
// the Go runtime, and its times from the spans of the traced phase r.
// untraced is the same workload and seed without tracing.
func perLayer(r, untraced *phaseResult, tcp bool) []metric {
	st := r.st
	ops := float64(max(len(st.all), 1))
	stmts := float64(max(st.stmts, 1))
	g := func(name string) float64 { return float64(r.reg.Get(name)) }
	per := func(name string) float64 { return g(name) / ops }
	engineNs := float64(r.trace.execNs - r.trace.execAmNs)
	if tcp {
		engineNs = float64(st.serverNs - r.trace.amNs)
	}
	m := []metric{
		{"wire.self_us", ratio(float64(st.rttNs-st.serverNs)/1e3, float64(st.profiled)), "us", st.profiled},
		{"server.batches_per_stmt", ratio(g("server.batches.sent"), g("server.statements")), "count", 0},
		{"server.slot_waits_per_op", per("server.slot.waits"), "count", 0},
		{"sql.parses_per_op", per("sql.parses"), "count", 0},
		{"sql.parse_us_per_stmt", g("sql.parse_ns") / 1e3 / stmts, "us", 0},
		{"plan_cache.hit_rate", ratio(g("plan_cache.hits"), g("plan_cache.hits")+g("plan_cache.misses")), "frac", 0},
		{"sql.plan_us_per_stmt", g("sql.plan_ns") / 1e3 / stmts, "us", 0},
		{"engine.exec_self_us", engineNs / 1e3 / ops, "us", 0},
		{"engine.commit_wait_us_per_op", g("wal.commit_latency.us") / ops, "us", 0},
		{"engine.scanned_per_returned", ratio(float64(st.scanned), float64(st.ret)), "ratio", 0},
		{"agg.pushdown_rate", ratio(g("agg.pushed"), g("agg.pushed")+g("agg.fallback")), "frac", 0},
	}
	for _, s := range amSlots {
		m = append(m,
			metric{"am." + s + ".calls_per_op", per("am." + s), "count", 0},
			metric{"am." + s + ".us_per_call", ratio(float64(r.trace.slotNs[s])/1e3, float64(r.trace.slotCalls[s])), "us", r.trace.slotCalls[s]})
	}
	m = append(m, []metric{
		{"sbspace.lo_opens_per_op", per("sbspace.lo_opens"), "count", 0},
		{"lock.acquires_per_op", per("lock.acquires"), "count", 0},
		{"lock.waits_per_op", per("lock.waits"), "count", 0},
		{"mvcc.created_per_op", per("mvcc.versions_created"), "count", 0},
		{"mvcc.skipped_per_op", per("mvcc.versions_skipped"), "count", 0},
		{"mvcc.vacuumed_per_op", per("mvcc.vacuumed"), "count", 0},
		{"storage.heap_fetches_per_op", float64(r.heap.fetches) / ops, "count", 0},
		{"storage.heap_hit_rate", ratio(float64(r.heap.hits), float64(r.heap.fetches)), "frac", 0},
		{"storage.index_fetches_per_op", float64(r.index.fetches) / ops, "count", 0},
		{"storage.index_hit_rate", ratio(float64(r.index.hits), float64(r.index.fetches)), "frac", 0},
		{"storage.reads_per_op", float64(r.heap.reads+r.index.reads) / ops, "count", 0},
		{"storage.evictions_per_op", float64(r.heap.evictions+r.index.evictions) / ops, "count", 0},
		{"wal.appends_per_op", per("wal.appends"), "count", 0},
		{"wal.bytes_per_row_written", ratio(g("wal.bytes"), float64(st.rowsWritten)), "B", st.rowsWritten},
		{"wal.fsyncs_per_op", per("wal.flushes"), "count", 0},
		{"wal.group_size_mean", ratio(g("wal.group_size.us"), g("wal.group_size.n")), "count", 0},
		{"wal.checkpoints", g("wal.checkpoints"), "count", 0},
		{"go.allocs_per_op", float64(r.mallocs) / ops, "count", 0},
		{"go.alloc_bytes_per_op", float64(r.allocB) / ops, "B", 0},
		{"go.gc_cycles", float64(r.gcs), "count", 0},
		{"trace.overhead_frac", 1 - ratio(r.opsPerSec(), untraced.opsPerSec()), "frac", 0},
		{"gen.late_us_p99", percentile(st.late, 0.99), "us", len(st.late)},
	}...)
	return m
}
