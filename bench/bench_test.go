package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	// Runs re-execute the running binary for their helper children;
	// under go test that binary is this test.
	if ok, err := childMode(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func loadBenchmarkDef(t *testing.T) *benchmarkFile {
	t.Helper()
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestDefinitionMatchesCode pins BENCHMARK.json to the workloads and
// metric tables the benchmark implements.
func TestDefinitionMatchesCode(t *testing.T) {
	def := loadBenchmarkDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}

// TestQuickWorkloads runs every workload at -quick size, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names
// for that kind of run, with its unit, and that no output was wrong.
func TestQuickWorkloads(t *testing.T) {
	def := loadBenchmarkDef(t)
	for _, w := range def.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/trace=%t", w.Name, traced), func(t *testing.T) {
				o := &options{workload: w.Name, seed: 1, seconds: 1, trace: traced, quick: true,
					traceDir: t.TempDir(), workDir: t.TempDir()}
				r, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				if r.Wrong != 0 || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("wrong_results=%d failed=%d attempted=%d: %q", r.Wrong, r.Failed, r.Attempted, r.Problems)
				}
				want := def.EndToEnd
				if traced {
					want = def.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(o.traceDir, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestExpectedConvictionCounts ties the correctness gate to the cold
// chunked rows recorded in BENCH_probe.json.
func TestExpectedConvictionCounts(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCH_probe.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bp struct {
		StrategyMatrix struct {
			Rows []struct {
				Strategy, Mode, Config string
				Convictions            int
			} `json:"rows"`
		} `json:"strategy_matrix"`
	}
	if err := json.Unmarshal(data, &bp); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, row := range bp.StrategyMatrix.Rows {
		if row.Strategy != "chunked" || row.Mode != "cold" {
			continue
		}
		n++
		if got := len(exp.Probes[row.Config].Convictions); got != row.Convictions {
			t.Errorf("%s: expected.json has %d convictions, BENCH_probe.json %d", row.Config, got, row.Convictions)
		}
	}
	if n != len(exp.Probes) {
		t.Errorf("BENCH_probe.json has %d cold chunked rows, expected.json %d configurations", n, len(exp.Probes))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 90}
	for _, tc := range []struct {
		base, head []float64
		want       string
	}{
		{base, faster, "improved"},
		{base, slower, "worse"},
		{base, base, "unchanged"},
		{noisy, base, "unresolved"},
	} {
		if got := judge(tc.base, tc.head, true, 0.1).verdict; got != tc.want {
			t.Errorf("judge(%v, %v) = %s, want %s", tc.base, tc.head, got, tc.want)
		}
	}
}
