package goraql

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's experiment index):
//
//	go test -bench=Fig4 -benchmem          # Fig. 4 rows
//	go test -bench=. -benchmem             # everything
//
// Each benchmark runs the full ORAQL workflow (baseline compile+run,
// fully optimistic attempt, bisection) and reports the headline
// numbers as custom metrics, so the paper's shape is visible straight
// from the bench output: pessimistic-query counts, the no-alias
// growth, and the dynamic-instruction deltas.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/report"
)

// probeOnce runs the ORAQL workflow for a configuration.
func probeOnce(b *testing.B, id string) *report.Experiment {
	b.Helper()
	cfg := apps.ByID(id)
	if cfg == nil {
		b.Fatalf("unknown config %q", id)
	}
	e, err := report.Run(cfg, io.Discard)
	if err != nil {
		b.Fatalf("probe %s: %v", id, err)
	}
	return e
}

func reportFig4Metrics(b *testing.B, e *report.Experiment) {
	s := e.Probe.Final.Compile.ORAQLStats()
	orig := e.Probe.Baseline.Compile.NoAliasTotal()
	fin := e.Probe.Final.Compile.NoAliasTotal()
	b.ReportMetric(float64(s.UniqueOptimistic), "opt-unique")
	b.ReportMetric(float64(s.CachedOptimistic), "opt-cached")
	b.ReportMetric(float64(s.UniquePessimistic), "pess-unique")
	b.ReportMetric(float64(s.CachedPessimistic), "pess-cached")
	if orig > 0 {
		b.ReportMetric(100*float64(fin-orig)/float64(orig), "noalias-growth-%")
	}
}

// BenchmarkFig4_QueryStats regenerates the Fig. 4 table: one sub-bench
// per configuration, reporting the query statistics as metrics.
func BenchmarkFig4_QueryStats(b *testing.B) {
	for _, cfg := range apps.All() {
		cfg := cfg
		b.Run(cfg.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := probeOnce(b, cfg.ID)
				reportFig4Metrics(b, e)
			}
		})
	}
}

// BenchmarkFig3_PessimisticDump regenerates the Fig. 3 report for the
// TestSNAP OpenMP configuration (query dump with pass attribution and
// source locations).
func BenchmarkFig3_PessimisticDump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := probeOnce(b, "testsnap-openmp")
		dump := report.Fig3(e)
		if len(dump) == 0 {
			b.Fatal("empty dump")
		}
		b.ReportMetric(float64(e.Probe.Final.Compile.ORAQLStats().UniquePessimistic), "pess-unique")
	}
}

// BenchmarkFig6_PassStats regenerates the Fig. 6 deltas for the
// configurations the paper quotes, reporting the headline counters.
func BenchmarkFig6_PassStats(b *testing.B) {
	rows := []struct {
		id, pass, stat, metric string
	}{
		{"quicksilver-openmp", "Loop Deletion", "# deleted loops", "deleted-loops"},
		{"quicksilver-openmp", "Dead Store Elimination", "# stores deleted", "stores-deleted"},
		{"minife-openmp", "Loop Vectorizer", "# vector instructions generated", "vector-instrs"},
		{"minigmg-ompif", "Loop Vectorizer", "# vectorized loops", "vectorized-loops"},
		{"minigmg-omptask", "Loop Vectorizer", "# vectorized loops", "vectorized-loops"},
		{"minigmg-sse", "Loop Vectorizer", "# vectorized loops", "vectorized-loops"},
		{"testsnap-fortran", "Loop Invariant Code Motion", "# loads hoisted or sunk", "loads-hoisted"},
	}
	for _, row := range rows {
		row := row
		b.Run(row.id+"/"+row.metric, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := probeOnce(b, row.id)
				base := e.Probe.Baseline.Compile.Host.Pass.Get(row.pass, row.stat)
				fin := e.Probe.Final.Compile.Host.Pass.Get(row.pass, row.stat)
				if e.Probe.Baseline.Compile.Device != nil {
					base += e.Probe.Baseline.Compile.Device.Pass.Get(row.pass, row.stat)
					fin += e.Probe.Final.Compile.Device.Pass.Get(row.pass, row.stat)
				}
				b.ReportMetric(float64(base), row.metric+"-orig")
				b.ReportMetric(float64(fin), row.metric+"-oraql")
			}
		})
	}
}

// BenchmarkFig7_KernelStats regenerates the per-kernel register and
// stack-frame deltas of the TestSNAP Kokkos-CUDA device compilation.
func BenchmarkFig7_KernelStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := probeOnce(b, "testsnap-kokkos-cuda")
		base := e.Probe.Baseline.Compile.Device
		fin := e.Probe.Final.Compile.Device
		if base == nil || fin == nil {
			b.Fatal("no device compilation")
		}
		changed := 0
		kernels := 0
		for _, bf := range base.Code.Funcs {
			if !bf.IsKernel {
				continue
			}
			kernels++
			for _, ff := range fin.Code.Funcs {
				if ff.Name == bf.Name && (ff.RegsUsed != bf.RegsUsed || ff.StackBytes != bf.StackBytes) {
					changed++
				}
			}
		}
		b.ReportMetric(float64(kernels), "kernels")
		b.ReportMetric(float64(changed), "kernels-changed")
	}
}

// runtimeBench reports original-vs-ORAQL dynamic instruction deltas
// (the perf numbers quoted in Section V's text).
func runtimeBench(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := probeOnce(b, id)
		orig := e.Probe.Baseline.Run.Instrs
		fin := e.Probe.Final.Run.Instrs
		b.ReportMetric(float64(orig), "instrs-orig")
		b.ReportMetric(float64(fin), "instrs-oraql")
		if orig > 0 {
			b.ReportMetric(100*float64(fin-orig)/float64(orig), "instr-delta-%")
		}
	}
}

// BenchmarkRuntime_TestSNAPSeq: Section V-A(a), instructions -1.2%.
func BenchmarkRuntime_TestSNAPSeq(b *testing.B) { runtimeBench(b, "testsnap-seq") }

// BenchmarkRuntime_TestSNAPOpenMP: Section V-A(b), instructions -8%.
func BenchmarkRuntime_TestSNAPOpenMP(b *testing.B) { runtimeBench(b, "testsnap-openmp") }

// BenchmarkRuntime_TestSNAPFortran: Section V-A(d), 5% end-to-end.
func BenchmarkRuntime_TestSNAPFortran(b *testing.B) { runtimeBench(b, "testsnap-fortran") }

// BenchmarkRuntime_LULESH: Section V-E, times barely affected → we
// report the instruction deltas for all three variants.
func BenchmarkRuntime_LULESH(b *testing.B) {
	for _, id := range []string{"lulesh-seq", "lulesh-openmp", "lulesh-mpi"} {
		id := id
		b.Run(id, func(b *testing.B) { runtimeBench(b, id) })
	}
}

// BenchmarkRuntime_MiniGMG: Section V-G, ompif ~8% speedup, sse flat.
func BenchmarkRuntime_MiniGMG(b *testing.B) {
	for _, id := range []string{"minigmg-ompif", "minigmg-omptask", "minigmg-sse"} {
		id := id
		b.Run(id, func(b *testing.B) { runtimeBench(b, id) })
	}
}

// BenchmarkRuntime_GridMiniKernel: Section V-C, device kernel time
// under the occupancy model.
func BenchmarkRuntime_GridMiniKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := probeOnce(b, "gridmini-offload")
		bi := e.Probe.Baseline.Run.DeviceInstrs
		fi := e.Probe.Final.Run.DeviceInstrs
		b.ReportMetric(float64(bi), "dev-instrs-orig")
		b.ReportMetric(float64(fi), "dev-instrs-oraql")
	}
}

// BenchmarkProbing_Strategies is the Section IV-B ablation: chunked vs
// frequency-space bisection, with and without the executable cache.
func BenchmarkProbing_Strategies(b *testing.B) {
	cfg := apps.ByID("lulesh-seq")
	variants := []struct {
		name     string
		strategy driver.Strategy
		noCache  bool
	}{
		{"chunked", driver.Chunked, false},
		{"chunked-nocache", driver.Chunked, true},
		{"freqspace", driver.FreqSpace, false},
		{"freqspace-nocache", driver.FreqSpace, true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := cfg.Spec()
				spec.Strategy = v.strategy
				spec.DisableExeCache = v.noCache
				res, err := driver.Probe(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Compiles), "compiles")
				b.ReportMetric(float64(res.TestsRun), "tests-run")
				b.ReportMetric(float64(res.TestsCached), "tests-cached")
			}
		})
	}
}

// probeWorkers runs the full probing workflow over a suite of
// configurations with a fixed worker-pool size, reporting aggregate
// effort metrics. BenchmarkProbe_Sequential vs BenchmarkProbe_Parallel
// is the wall-clock comparison of the speculative parallel driver;
// scripts/bench_probe.sh records both into BENCH_probe.json.
func probeWorkers(b *testing.B, workers int) {
	ids := []string{"lulesh-seq", "testsnap-openmp", "minigmg-sse", "quicksilver-openmp"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var compiles, spec, wasted int64
		for _, id := range ids {
			cfg := apps.ByID(id)
			s := cfg.Spec()
			s.Workers = workers
			res, err := driver.Probe(s)
			if err != nil {
				b.Fatal(err)
			}
			compiles += int64(res.Compiles)
			spec += int64(res.TestsSpeculated)
			wasted += int64(res.TestsWasted)
		}
		b.ReportMetric(float64(compiles), "compiles")
		b.ReportMetric(float64(spec), "tests-speculated")
		b.ReportMetric(float64(wasted), "tests-wasted")
	}
}

// BenchmarkProbe_Sequential probes with a single worker — the paper's
// strictly sequential driver.
func BenchmarkProbe_Sequential(b *testing.B) { probeWorkers(b, 1) }

// BenchmarkProbe_Parallel probes with a worker pool (at least 4; more
// when the machine has the cores), speculating on likely candidates.
// The discovered sequences are bit-identical to the sequential run.
func BenchmarkProbe_Parallel(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	probeWorkers(b, workers)
}

// benchConvictions fingerprints a probe's conviction set, sorted, one
// "pass|func|a|b" descriptor per line.
func benchConvictions(res *driver.Result) string {
	var out []string
	for _, rec := range res.GuiltyQueries() {
		a, b := rec.LocDescriptions()
		out = append(out, fmt.Sprintf("%s|%s|%s|%s", rec.Pass, rec.Func, a, b))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// BenchmarkProbe_StrategyMatrix is the probing-strategy shoot-out over
// every app configuration: chunked and freq, each cold and seeded.
// "Seeded" means a prior chunked campaign populated a fresh disk cache
// (test outcomes, verdict history, run replay), the situation a
// re-probe of an unchanged program sees; the seeding run is excluded
// from the timing. scripts/bench_probe.sh lifts the matrix into
// BENCH_probe.json and checks the headline claim: seeded chunked beats
// cold chunked and cold freq on compiles and wall clock on every
// configuration.
//
// Conviction identity is enforced inline for the seeded runs of the
// prefix-context strategy (chunked): its conviction set must match the
// seeding chunked campaign exactly. freq is exempt — it convicts a
// documented superset (see TestStrategyConformance).
func BenchmarkProbe_StrategyMatrix(b *testing.B) {
	for _, strat := range []driver.Strategy{driver.Chunked, driver.FreqSpace} {
		for _, mode := range []string{"cold", "seeded"} {
			for _, cfg := range apps.All() {
				strat, mode, cfg := strat, mode, cfg
				b.Run(fmt.Sprintf("%s/%s/%s", strat.Name(), mode, cfg.ID), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var cache *diskcache.Store
						var want string
						seeded := mode == "seeded"
						if seeded {
							b.StopTimer()
							c, err := diskcache.Open(b.TempDir())
							if err != nil {
								b.Fatal(err)
							}
							seed := cfg.Spec()
							seed.Strategy = driver.Chunked
							seed.Workers = 1
							seed.Cache = c
							sres, err := driver.Probe(seed)
							if err != nil {
								b.Fatal(err)
							}
							want = benchConvictions(sres)
							cache = c
							// testing.B collects garbage before every cold
							// cell; do the same after the untimed seeding.
							runtime.GC()
							b.StartTimer()
						}
						spec := cfg.Spec()
						spec.Strategy = strat
						spec.Workers = 1
						spec.Cache = cache
						res, err := driver.Probe(spec)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(res.Compiles), "compiles")
						b.ReportMetric(float64(len(res.GuiltyQueries())), "convictions")
						if seeded && strat.Name() != "freq" {
							if got := benchConvictions(res); got != want {
								b.Fatalf("conviction set differs from chunked:\n got: %q\nwant: %q", got, want)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblation_ChainPosition measures how many queries reach
// ORAQL when the costly CFL analyses are enabled ahead of it (the
// "new trade-off" discussion of Section I's use case 2).
func BenchmarkAblation_ChainPosition(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "default-chain"
		if full {
			name = "with-cfl-analyses"
		}
		full := full
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := apps.ByID("quicksilver-openmp")
				spec := cfg.Spec()
				spec.Compile.FullAAChain = full
				res, err := driver.Probe(spec)
				if err != nil {
					b.Fatal(err)
				}
				s := res.Final.Compile.ORAQLStats()
				b.ReportMetric(float64(s.Unique()), "residual-queries")
			}
		})
	}
}

// BenchmarkCompileOnly measures raw compilation throughput of the -O3
// pipeline over the whole suite (no probing).
func BenchmarkCompileOnly(b *testing.B) {
	cfgs := apps.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			cc := c.Spec().Compile
			cc.Name = c.ID
			if _, err := CompileSource(cc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs)), "configs")
}

// BenchmarkCompile_AnalysisCache measures the compile-time effect of
// the analysis cache: every configuration is compiled once with it
// ("cached") and once with the analysis manager force-invalidated so
// each pass recomputes CFG info and MemorySSA from scratch ("forced"),
// reporting the hit rate as metrics. scripts/bench_compile.sh records
// both modes into BENCH_compile.json.
func BenchmarkCompile_AnalysisCache(b *testing.B) {
	modes := []struct {
		name       string
		noAnalysis bool
	}{{"cached", false}, {"forced", true}}
	for _, c := range apps.All() {
		c := c
		for _, mode := range modes {
			mode := mode
			b.Run(c.ID+"/"+mode.name, func(b *testing.B) {
				var hits, misses int64
				for i := 0; i < b.N; i++ {
					cc := c.Spec().Compile
					cc.Name = c.ID
					cc.DisableAnalysisCache = mode.noAnalysis
					cr, err := CompileSource(cc)
					if err != nil {
						b.Fatal(err)
					}
					hits, misses = 0, 0
					for _, as := range cr.AnalysisStats() {
						hits += as.Hits
						misses += as.Misses
					}
				}
				b.ReportMetric(float64(hits), "analysis-hits")
				b.ReportMetric(float64(misses), "analysis-misses")
				if hits+misses > 0 {
					b.ReportMetric(100*float64(hits)/float64(hits+misses), "analysis-hit-%")
				}
			})
		}
	}
}

// BenchmarkAblation_BlockingChain is the Section VIII dual experiment:
// block the entire conservative analysis chain (ModeBlocking, empty
// sequence) and measure what the existing analyses were buying.
func BenchmarkAblation_BlockingChain(b *testing.B) {
	cfg := apps.ByID("testsnap-seq")
	for i := 0; i < b.N; i++ {
		cc := cfg.Spec().Compile
		cc.Name = "blocked"
		base, err := CompileSource(cc)
		if err != nil {
			b.Fatal(err)
		}
		baseRun, err := RunProgram(base.Program, cfg.Run)
		if err != nil {
			b.Fatal(err)
		}
		cc.ORAQL = &ORAQLOptions{Mode: oraql.ModeBlocking}
		blocked, err := CompileSource(cc)
		if err != nil {
			b.Fatal(err)
		}
		blockedRun, err := RunProgram(blocked.Program, cfg.Run)
		if err != nil {
			b.Fatal(err)
		}
		// Compare outputs with the configuration's volatile-field masks
		// (the simulated clock differs across binaries by design).
		spec := cfg.Spec()
		spec.Verify.References = []string{baseRun.Stdout}
		if err := spec.Verify.Compile(); err != nil {
			b.Fatal(err)
		}
		if v := spec.Verify.Check(blockedRun.Stdout, nil); !v.OK {
			b.Fatalf("blocking changed semantics: %s", v.Diff)
		}
		b.ReportMetric(float64(baseRun.Instrs), "instrs-default-aa")
		b.ReportMetric(float64(blockedRun.Instrs), "instrs-no-aa")
		b.ReportMetric(100*float64(blockedRun.Instrs-baseRun.Instrs)/float64(baseRun.Instrs), "aa-value-%")
	}
}
