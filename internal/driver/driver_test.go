package driver

import (
	"bytes"
	"testing"

	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// helloSrc carries a genuine flow dependence: a[i+1] = f(a[i]) cascades
// across iterations, so a wrong no-alias answer lets the vectorizer
// break the program — the miniature of the paper's "dangerous queries".
const helloSrc = `
int main() {
	double a[64];
	for (int i = 0; i < 64; i++) {
		a[i] = (double)i * 2.0;
	}
	for (int i = 0; i < 63; i++) {
		a[i+1] = a[i] * 0.5 + a[i+1];
	}
	double s = 0.0;
	for (int i = 0; i < 64; i++) {
		s = s + a[i];
	}
	print("sum=", s, "\n");
	return 0;
}
`

func TestProbeHelloChunked(t *testing.T) {
	var log bytes.Buffer
	spec := &BenchSpec{
		Name:    "hello",
		Compile: pipeline.Config{Source: helloSrc},
		Log:     &log,
	}
	res, err := Probe(spec)
	if err != nil {
		t.Fatalf("probe: %v\n%s", err, log.String())
	}
	t.Logf("\n%s", log.String())
	if res.FullyOptimistic {
		t.Fatalf("hello has a true alias hazard; full optimism should fail")
	}
	s := res.Final.Compile.ORAQLStats()
	if s.UniquePessimistic == 0 {
		t.Fatalf("expected pessimistic queries, got none")
	}
	if s.UniqueOptimistic == 0 {
		t.Fatalf("expected some optimistic queries")
	}
	if res.Final.Run.Stdout != res.Baseline.Run.Stdout {
		t.Fatalf("final output %q != baseline %q", res.Final.Run.Stdout, res.Baseline.Run.Stdout)
	}
	t.Logf("final: opt=%d/%d pess=%d/%d compiles=%d tests=%d cached=%d",
		s.UniqueOptimistic, s.CachedOptimistic, s.UniquePessimistic, s.CachedPessimistic,
		res.Compiles, res.TestsRun, res.TestsCached)
}

// TestGuiltyQueries checks the Fig. 3 accessor: the records returned
// match the pessimistic half of the final sequence exactly, and each
// one is attributable (pass, function, and both locations).
func TestGuiltyQueries(t *testing.T) {
	res, err := Probe(&BenchSpec{
		Name:    "hello-guilty",
		Compile: pipeline.Config{Source: helloSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	guilty := res.GuiltyQueries()
	if len(guilty) == 0 {
		t.Fatal("hello has a true alias hazard; GuiltyQueries must be non-empty")
	}
	s := res.Final.Compile.ORAQLStats()
	if len(guilty) != s.UniquePessimistic {
		t.Errorf("GuiltyQueries = %d records, stats say %d pessimistic", len(guilty), s.UniquePessimistic)
	}
	if want := res.FinalSeq.CountPessimistic(); len(guilty) != want {
		t.Errorf("GuiltyQueries = %d records, final sequence has %d pessimistic answers", len(guilty), want)
	}
	for _, rec := range guilty {
		if rec.Optimistic {
			t.Errorf("optimistic record in guilty set: %+v", rec)
		}
		if rec.Pass == "" || rec.Func == "" {
			t.Errorf("guilty record not attributed: %+v", rec)
		}
		a, b := rec.LocDescriptions()
		if a == "" || b == "" {
			t.Errorf("guilty record lacks location descriptions: %+v", rec)
		}
	}

	// A nil final outcome must not panic.
	if got := (&Result{}).GuiltyQueries(); got != nil {
		t.Errorf("empty result yields %v, want nil", got)
	}
}

func TestProbeHelloFreqSpace(t *testing.T) {
	spec := &BenchSpec{
		Name:     "hello",
		Compile:  pipeline.Config{Source: helloSrc},
		Strategy: FreqSpace,
	}
	res, err := Probe(spec)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if res.FullyOptimistic {
		t.Fatalf("full optimism should fail")
	}
	if res.Final.Run.Stdout != res.Baseline.Run.Stdout {
		t.Fatalf("final output mismatch")
	}
}

// noHazardSrc has no true aliasing: the probe must report fully
// optimistic after exactly one baseline + one test compile.
const noHazardSrc = `
int main() {
	double a[16];
	double b[16];
	for (int i = 0; i < 16; i++) {
		a[i] = (double)i;
	}
	for (int i = 0; i < 16; i++) {
		b[i] = a[i] * 2.0;
	}
	print(checksum(b, 16), "\n");
	return 0;
}
`

func TestProbeFullyOptimisticFastPath(t *testing.T) {
	res, err := Probe(&BenchSpec{
		Name:    "nohazard",
		Compile: pipeline.Config{Source: noHazardSrc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullyOptimistic {
		t.Fatal("expected fully optimistic")
	}
	if len(res.FinalSeq) != 0 {
		t.Errorf("fully optimistic result must keep the empty sequence, got %v", res.FinalSeq)
	}
	// Baseline + optimistic test = 2 compiles: the optimistic test
	// replayed no step, so its build is the final.
	if res.Compiles != 2 {
		t.Errorf("compiles = %d, want 2", res.Compiles)
	}
}

// A fully optimistic campaign that prints compiles its final live,
// because that compile is what prints: with an ORAQL dump or with
// -debug-pass it takes 3 compiles, and after the baseline and the
// optimistic test the final prints what one compile of the empty
// sequence prints.
func TestPrintingFullyOptimisticCampaignCompilesItsFinal(t *testing.T) {
	// printed returns what one compile of noHazardSrc prints.
	printed := func(t *testing.T, opts *oraql.Options, debugPass bool) string {
		t.Helper()
		var out bytes.Buffer
		cfg := pipeline.Config{Name: "nohazard", Source: noHazardSrc}
		if opts != nil {
			o := *opts
			o.Out = &out
			cfg.ORAQL = &o
		}
		if debugPass {
			cfg.DebugPass = &out
		}
		if _, err := pipeline.Compile(cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	dump := oraql.Options{Dump: oraql.DumpFlags{First: true, Optimistic: true}}
	for _, c := range []struct {
		name      string
		opts      oraql.Options
		debugPass bool
	}{
		{"oraql-dump", dump, false},
		{"debug-pass", oraql.Options{}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			spec := &BenchSpec{
				Name:    "nohazard",
				Compile: pipeline.Config{Source: noHazardSrc},
				ORAQL:   c.opts,
				Workers: 1,
			}
			if c.debugPass {
				spec.Compile.DebugPass = &out
			} else {
				spec.ORAQL.Out = &out
			}
			res, err := Probe(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.FullyOptimistic || res.Compiles != 3 {
				t.Errorf("fully optimistic %v in %d compiles, want true in 3", res.FullyOptimistic, res.Compiles)
			}
			opt := printed(t, &c.opts, c.debugPass)
			want := opt + opt
			if c.debugPass {
				want = printed(t, nil, true) + want
			}
			if opt == "" || out.String() != want {
				t.Errorf("campaign printed %d bytes, want baseline, test and final: %d bytes\n%s",
					out.Len(), len(want), out.String())
			}
		})
	}
}

func TestProbeTestBudgetExhausted(t *testing.T) {
	spec := &BenchSpec{
		Name:     "hello",
		Compile:  pipeline.Config{Source: helloSrc},
		MaxTests: 1,
	}
	if _, err := Probe(spec); err == nil {
		t.Fatal("a one-test budget must fail on a hazardous program")
	}
}

func TestStrategiesAgreeOnSafety(t *testing.T) {
	// Both strategies must end with a verifying sequence whose
	// pessimistic bits cover the hazard; the exact count may differ
	// (both are greedy local searches).
	for _, s := range []Strategy{Chunked, FreqSpace} {
		spec := &BenchSpec{
			Name:     "hello",
			Compile:  pipeline.Config{Source: helloSrc},
			Strategy: s,
		}
		res, err := Probe(spec)
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if res.Final.Compile.ORAQLStats().UniquePessimistic == 0 {
			t.Errorf("strategy %d found no pessimistic queries", s)
		}
		if res.Final.Run.Stdout != res.Baseline.Run.Stdout {
			t.Errorf("strategy %d: output mismatch", s)
		}
	}
}

func TestExeCacheDisabledRunsMoreTests(t *testing.T) {
	run := func(disable bool) *Result {
		res, err := Probe(&BenchSpec{
			Name:            "hello",
			Compile:         pipeline.Config{Source: helloSrc},
			DisableExeCache: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withCache := run(false)
	withoutCache := run(true)
	if withoutCache.TestsCached != 0 {
		t.Error("disabled cache must not report cached tests")
	}
	if withoutCache.TestsRun <= withCache.TestsRun {
		t.Errorf("cache must reduce executed tests: %d (cached) vs %d (no cache)",
			withCache.TestsRun, withoutCache.TestsRun)
	}
}

func TestProbeRespectsProvidedReferences(t *testing.T) {
	spec := &BenchSpec{
		Name:    "nohazard",
		Compile: pipeline.Config{Source: noHazardSrc},
	}
	spec.Verify.References = []string{"this will never match\n"}
	if _, err := Probe(spec); err == nil {
		t.Fatal("a reference the baseline cannot meet must fail")
	}
}

func TestFinalSequenceIsReproducible(t *testing.T) {
	spec1 := &BenchSpec{Name: "hello", Compile: pipeline.Config{Source: helloSrc}}
	res1, err := Probe(spec1)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := &BenchSpec{Name: "hello", Compile: pipeline.Config{Source: helloSrc}}
	res2, err := Probe(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FinalSeq.String() != res2.FinalSeq.String() {
		t.Errorf("probing must be deterministic: %q vs %q", res1.FinalSeq, res2.FinalSeq)
	}
	if res1.Final.Compile.ExeHash() != res2.Final.Compile.ExeHash() {
		t.Error("final executables must be bit-identical across probes")
	}
}

// TestProbeMustAliasMode runs the full workflow with the Section VIII
// optimistic-must-alias responder: bisection must converge to a build
// matching the baseline.
func TestProbeMustAliasMode(t *testing.T) {
	spec := &BenchSpec{
		Name:    "hello-must",
		Compile: pipeline.Config{Source: helloSrc},
		ORAQL:   oraql.Options{Mode: oraql.ModeOptimisticMust},
	}
	res, err := Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Run.Stdout != res.Baseline.Run.Stdout {
		t.Fatalf("must-alias probing diverged: %q vs %q",
			res.Final.Run.Stdout, res.Baseline.Run.Stdout)
	}
	t.Logf("must-alias mode: fullyOptimistic=%v pess=%d",
		res.FullyOptimistic, res.Final.Compile.ORAQLStats().UniquePessimistic)
}
