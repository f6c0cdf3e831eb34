package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

// span is one timed call at a layer boundary. op links it to the workload
// operation that caused it; unlinked is used for purpose-function calls the
// benchmark cannot attribute (server-side sessions, background vacuum).
type span struct {
	name       string
	op         int64
	start, end int64 // nanoseconds since the tracer's epoch
}

const unlinked = -1

// tracer records spans in memory from the benchmark's own call sites: the
// operation root, Engine.ParseSQL, Session.ExecStmt / ExecutePrepared, and
// every purpose function through a wrapped blade library. The nil tracer
// records nothing, so the untraced run executes the same calls.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// ops maps a session's DataBlade API context to the operation it is
	// running, which is how a purpose-function call finds its operation.
	ops sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// end records a span that started at start and ends now.
func (t *tracer) end(name string, op, start int64) {
	if t == nil {
		return
	}
	s := span{name: name, op: op, start: start, end: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) bind(ctx *mi.Context, op int64) {
	if t != nil {
		t.ops.Store(ctx, op)
	}
}

func (t *tracer) unbind(ctx *mi.Context) {
	if t != nil {
		t.ops.Delete(ctx)
	}
}

func (t *tracer) opOf(ctx *mi.Context) int64 {
	if v, ok := t.ops.Load(ctx); ok {
		return v.(int64)
	}
	return unlinked
}

// reset drops every span recorded so far (the warm-up's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) taken() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// call times one purpose-function call under its am_* slot name.
func (t *tracer) call(ctx *mi.Context, slot string) func() {
	start := t.now()
	return func() { t.end(slot, t.opOf(ctx), start) }
}

// wrapLibrary returns lib with every purpose function replaced by a timed
// wrapper of the same type under the same symbol name, so the engine binds
// it exactly as it binds the original. Symbols are named <prefix><slot>
// (grt_open is am_open). Slots that never run in a timed region (am_stats,
// am_check, am_build, am_update, am_parallelscan), strategy and support
// UDRs are passed through.
func (t *tracer) wrapLibrary(lib am.Library, prefix string) am.Library {
	out := make(am.Library, len(lib))
	for sym, fn := range lib {
		slot := "am_" + strings.TrimPrefix(sym, prefix)
		switch f := fn.(type) {
		case am.AmIndexFunc:
			out[sym] = am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
				defer t.call(ctx, slot)()
				return f(ctx, id)
			})
		case am.AmScanFunc:
			out[sym] = am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
				defer t.call(ctx, slot)()
				return f(ctx, sd)
			})
		case am.AmGetNextFunc:
			out[sym] = am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
				defer t.call(ctx, slot)()
				return f(ctx, sd)
			})
		case am.AmGetMultiFunc:
			out[sym] = am.AmGetMultiFunc(func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
				defer t.call(ctx, slot)()
				return f(ctx, sd)
			})
		case am.AmMutateFunc:
			out[sym] = am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
				defer t.call(ctx, slot)()
				return f(ctx, id, row, rid)
			})
		case am.AmScanCostFunc:
			out[sym] = am.AmScanCostFunc(func(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
				defer t.call(ctx, slot)()
				return f(ctx, id, q)
			})
		case am.AmAggregateFunc:
			out[sym] = am.AmAggregateFunc(func(ctx *mi.Context, id *am.IndexDesc, req *am.AggRequest) (*am.AggResult, bool, error) {
				defer t.call(ctx, slot)()
				return f(ctx, id, req)
			})
		default:
			out[sym] = fn
		}
	}
	return out
}

// traceSummary is what the per-layer metrics read from the spans.
type traceSummary struct {
	slotCalls map[string]int
	slotNs    map[string]int64
	// execNs is the time inside Session.ExecStmt / ExecutePrepared, and
	// execAmNs the part of it covered by purpose-function spans of the same
	// operation.
	execNs, execAmNs int64
	// amNs is the time in every purpose-function span, linked or not.
	amNs int64
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{slotCalls: map[string]int{}, slotNs: map[string]int64{}}
	byOp := map[int64][]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.name, "am_") {
			sum.slotCalls[s.name]++
			sum.slotNs[s.name] += s.end - s.start
			sum.amNs += s.end - s.start
		}
		if s.op != unlinked {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	for _, ss := range byOp {
		var am []span
		for _, s := range ss {
			if strings.HasPrefix(s.name, "am_") {
				am = append(am, s)
			}
		}
		for _, s := range ss {
			if s.name == "exec" {
				sum.execNs += s.end - s.start
				sum.execAmNs += covered(s, am)
			}
		}
	}
	return sum
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// writeSpans writes the spans as tab-separated lines: name, op, start ns,
// end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.name, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
