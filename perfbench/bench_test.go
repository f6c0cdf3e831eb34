package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func short(t *testing.T, workload string, trace bool, fault string) *report {
	t.Helper()
	dir := t.TempDir()
	rep, err := run(config{
		workload: workload, seed: 3, seconds: 400 * time.Millisecond, trace: trace,
		dir: filepath.Join(dir, "db"), spans: filepath.Join(dir, "spans.tsv"),
		rows: 1500, fault: fault,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestShortRunsEmitEveryMetric runs every workload of the program, including
// mixed-tcp, which BENCHMARK.json leaves out.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not have", w.Name)
		}
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			rep := short(t, name, trace, "")
			if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, rep.res.Correct, rep.res.Attempted, rep.res.Failed, rep.problems)
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(rep.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestWrongAnswerFailsRun(t *testing.T) {
	for _, w := range []string{"read-embedded", "mixed-tcp"} {
		rep := short(t, w, false, "wrong-answer")
		if rep.res.Correct {
			t.Errorf("%s: a corrupted answer passed the checks", w)
		}
	}
}

func TestDroppedWriteFailsRun(t *testing.T) {
	for _, w := range []string{"write-tcp", "mixed-tcp"} {
		rep := short(t, w, false, "drop-write")
		if rep.res.Correct {
			t.Fatalf("%s: a lost acknowledged write passed the checks", w)
		}
		if !strings.Contains(strings.Join(rep.problems, "\n"), "after recovery") {
			t.Errorf("%s: the durability check did not report the lost write: %v", w, rep.problems)
		}
	}
}
