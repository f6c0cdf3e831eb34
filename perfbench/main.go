// Command perfbench is the repository's benchmark. It drives tinyblade from
// one process through its public APIs — engine.Session embedded, and the
// client library against an in-process server on loopback — over
// bitemporal tables indexed by the GR-tree and R*-tree blades in a
// disk-backed database directory.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of an untraced run; with
// --trace 1 it runs the workload untraced and then traced on the same seed,
// half of --seconds each, and prints the per-layer metrics of the traced
// run. Every run checks its
// answers, and the write workloads also check durability across a crash.
// The last line of standard output is one JSON object; the lines before it
// are the human-readable report. The exit code is 1 when a check fails.
// Build and run it with perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
)

// result is the JSON line printed last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome: the JSON line's metrics plus what
// the human-readable report adds.
type report struct {
	cfg       config
	res       result
	setupSecs []float64 // reference set-ups of an untraced run
	gated     []metric
	extra     []metric
	phases    []*phaseResult
	problems  []string
}

func main() {
	name := flag.String("workload", "", "read-embedded, write-tcp or mixed-tcp")
	seed := flag.Int64("seed", 1, "seed of the generated rows, queries and operation mix")
	secs := flag.Float64("seconds", 40, "length of the timed region")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-embedded|write-tcp|mixed-tcp --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A run must end within 180 seconds; fail rather than overrun.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	out := filepath.Join(".bench_build", "perfbench")
	rep, err := run(config{
		workload: *name, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace == 1,
		dir:   filepath.Join(out, fmt.Sprintf("%s-seed%d-pid%d", *name, *seed, os.Getpid())),
		spans: filepath.Join(out, *name+"-spans.tsv"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: an untraced phase, and with trace a traced
// phase after it.
func run(cfg config) (*report, error) {
	wl := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	if cfg.trace {
		// Set-up time is reported by untraced runs only, and the untraced
		// and traced phases share the timed length between them.
		cfg.seconds /= 2
	}
	rep := &report{cfg: cfg}
	if !cfg.trace {
		secs, err := timeSetups(cfg)
		if err != nil {
			return nil, err
		}
		rep.setupSecs = secs
	}
	plain, err := runPhase(cfg, wl, nil, "untraced")
	if err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, plain)
	shown := plain
	if cfg.trace {
		traced, err := runPhase(cfg, wl, newTracer(), "traced")
		if err != nil {
			return nil, err
		}
		rep.phases = append(rep.phases, traced)
		rep.gated = perLayer(traced, plain, wl.tcp)
		shown = traced
	} else {
		rep.gated = endToEnd(plain, rep.setupSecs)
	}
	rep.extra = byKind(shown)
	for _, ph := range rep.phases {
		rep.problems = append(rep.problems, ph.problems...)
	}
	rep.res = result{
		Correct:   len(rep.problems) == 0,
		Attempted: shown.st.attempted,
		Failed:    shown.st.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, m := range rep.gated {
		rep.res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	return rep, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (r *report) print() {
	c := r.cfg
	wl := workloads[c.workload]
	fmt.Printf("perfbench workload=%s seed=%d seconds_per_phase=%g trace=%v\n", c.workload, c.seed, c.seconds.Seconds(), c.trace)
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	fmt.Printf("engine: commit=%s (session default) pool_pages=%d page_bytes=%d\n", engine.NewSessionVars().Commit(), poolPages, pageSize)
	if len(r.setupSecs) > 0 {
		fmt.Printf("reference set-up: rows_per_table=%d tables=%d setup_s=%v\n", c.rowsOf(reference), len(reference.tables), r.setupSecs)
	}
	for i, ph := range r.phases {
		fmt.Printf("phase %d: workload_setup_s=%.3f ops=%d attempted=%d failed=%d elapsed_s=%.3f spans=%d live_rows=%d\n",
			i, ph.setupSecs, len(ph.st.all), ph.st.attempted, ph.st.failed, ph.st.elapsed.Seconds(), ph.spans, ph.liveRows)
		win := ph.st.windows()
		fmt.Printf("  windows: ops_per_s=%.1f lat_p50_us=%.0f lat_p99_us=%.0f mem_mb=%.1f min_ops=%d\n",
			win.rates, win.p50s, win.p99s, win.memMB, win.minOps)
		for _, t := range wl.tables {
			pg := ph.pages[t.name]
			fmt.Printf("  table %s (%s): initial_rows=%d end heap_pages=%d index_pages=%d\n", t.name, t.am, c.rowsOf(wl), pg[0], pg[1])
		}
		for _, e := range ph.st.errs {
			fmt.Printf("  error: %s\n", e)
		}
	}
	for _, m := range append(append([]metric(nil), r.gated...), r.extra...) {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Printf("metric %-36s %14.4f %s%s\n", m.name, m.value, m.unit, samples)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}
