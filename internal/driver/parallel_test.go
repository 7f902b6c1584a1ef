package driver_test

// Determinism of parallel probing: for every strategy and a
// representative set of application configurations, probing with one
// worker and probing with eight workers must discover the bit-identical
// final sequence and convictions, consume the same number of tests,
// and produce the same baseline and final executables and runs. The
// package is driver_test (external) because the configurations live in
// internal/apps, which imports internal/driver.

import (
	"fmt"
	"sort"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
)

func TestParallelProbeIsDeterministic(t *testing.T) {
	configs := []string{"lulesh-seq", "testsnap-openmp", "minigmg-sse", "quicksilver-openmp"}
	strategies := []struct {
		name string
		s    driver.Strategy
	}{
		{"chunked", driver.Chunked},
		{"freqspace", driver.FreqSpace},
	}
	for _, id := range configs {
		cfg := apps.ByID(id)
		if cfg == nil {
			t.Fatalf("unknown app config %q", id)
		}
		for _, strat := range strategies {
			t.Run(fmt.Sprintf("%s/%s", id, strat.name), func(t *testing.T) {
				probe := func(workers int) *driver.Result {
					spec := cfg.Spec()
					spec.Strategy = strat.s
					spec.Workers = workers
					res, err := driver.Probe(spec)
					if err != nil {
						t.Fatalf("Probe(workers=%d): %v", workers, err)
					}
					return res
				}
				seq := probe(1)
				par := probe(8)

				if got, want := par.FinalSeq.String(), seq.FinalSeq.String(); got != want {
					t.Errorf("FinalSeq differs: workers=8 %q, workers=1 %q", got, want)
				}
				if par.FullyOptimistic != seq.FullyOptimistic {
					t.Errorf("FullyOptimistic differs: workers=8 %v, workers=1 %v",
						par.FullyOptimistic, seq.FullyOptimistic)
				}
				// The decision loop consumes the same tests in the same
				// order regardless of worker count; only the run/cached
				// split may shift with speculative timing.
				if got, want := par.TestsRun+par.TestsCached, seq.TestsRun+seq.TestsCached; got != want {
					t.Errorf("consumed tests differ: workers=8 %d, workers=1 %d", got, want)
				}
				// The baseline may run beside the fully optimistic test,
				// and the final is compiled after the tests: neither may
				// depend on the worker count.
				for _, o := range []struct {
					name     string
					par, seq *driver.Outcome
				}{{"baseline", par.Baseline, seq.Baseline}, {"final", par.Final, seq.Final}} {
					if got, want := o.par.Compile.ExeHash(), o.seq.Compile.ExeHash(); got != want {
						t.Errorf("%s ExeHash differs: workers=8 %s, workers=1 %s", o.name, got, want)
					}
					if o.par.Run.Stdout != o.seq.Run.Stdout || o.par.Run.Instrs != o.seq.Run.Instrs {
						t.Errorf("%s run differs: workers=8 %d instrs, workers=1 %d", o.name, o.par.Run.Instrs, o.seq.Run.Instrs)
					}
					if got, want := o.par.Compile.ORAQLStats(), o.seq.Compile.ORAQLStats(); got != want {
						t.Errorf("%s ORAQLStats differ: workers=8 %+v, workers=1 %+v", o.name, got, want)
					}
				}
				if got, want := convictions(par), convictions(seq); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("convictions differ:\nworkers=8 %v\nworkers=1 %v", got, want)
				}
				if seq.TestsSpeculated != 0 {
					t.Errorf("sequential probe speculated %d tests, want 0", seq.TestsSpeculated)
				}
				// The fully optimistic test is consumed, never speculated.
				if par.FullyOptimistic && par.TestsSpeculated != 0 {
					t.Errorf("fully optimistic probe speculated %d tests, want 0", par.TestsSpeculated)
				}
				if par.TestsWasted > par.TestsSpeculated {
					t.Errorf("TestsWasted %d exceeds TestsSpeculated %d", par.TestsWasted, par.TestsSpeculated)
				}
			})
		}
	}
}

// convictions lists a campaign's guilty queries as sorted
// "pass|func|a|b" descriptors.
func convictions(res *driver.Result) []string {
	var out []string
	for _, rec := range res.GuiltyQueries() {
		a, b := rec.LocDescriptions()
		out = append(out, fmt.Sprintf("%s|%s|%s|%s", rec.Pass, rec.Func, a, b))
	}
	sort.Strings(out)
	return out
}
