package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// Trace lanes (Chrome trace "threads").
const (
	tidDriver = 1 // the campaigns and the tests the driver asked for
	tidReplay = 2 // the layer-by-layer replay of those tests
)

// testRecorder is a driver.Strategy that runs the chunked recursion
// through a Prober wrapper timing every Test call, so the tests a
// campaign consumes become visible from outside the driver.
type testRecorder struct {
	tr     *tracer
	parent int
	tests  []recordedTest
}

type recordedTest struct {
	seq oraql.Seq
	dur time.Duration
}

func (r *testRecorder) Name() string { return driver.Chunked.Name() }

func (r *testRecorder) Solve(p driver.Prober, n int) (oraql.Seq, error) {
	return driver.Chunked.Solve(timedProber{p, r}, n)
}

type timedProber struct {
	driver.Prober
	rec *testRecorder
}

func (t timedProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	sp := t.rec.tr.begin(tidDriver, t.rec.parent, "driver.test", map[string]any{"queries": len(seq)})
	t0 := time.Now()
	ok, err := t.Prober.Test(seq, specs...)
	t.rec.tests = append(t.rec.tests, recordedTest{seq: seq.Clone(), dur: time.Since(t0)})
	t.rec.tr.end(sp)
	return ok, err
}

// layerStats accumulates what the replay measures per layer.
type layerStats struct {
	compiles                 int
	frontend, chain, codegen time.Duration
	passes                   time.Duration
	perPass                  map[string]time.Duration
	compileMS                []float64
	compileTotal             time.Duration
	frontendAlloc            uint64
	compileAlloc             uint64
	aaQueries                int64
	aaHits, aaLookups        int64
	oraqlUnique              int64
	anHits, anMisses         int64

	runMS     []float64
	runTotal  time.Duration
	runInstrs int64
	runAlloc  uint64
	verifies  int
	verify    time.Duration

	// phases is the compile+run+verify time of every replayed item;
	// testPhases the part spent on the tests the driver consumed.
	phases, testPhases time.Duration
}

func newLayerStats() *layerStats { return &layerStats{perPass: map[string]time.Duration{}} }

// chainSpec is the alias-analysis chain a pipeline config selects.
func chainSpec(cfg pipeline.Config) string {
	switch {
	case cfg.AAChain != "":
		return cfg.AAChain
	case cfg.FullAAChain:
		return "full"
	}
	return "default"
}

// compile replays one compilation layer by layer: the frontend and the
// AA chain construction on their own (the pipeline repeats both
// internally), the whole pipeline, and codegen again on its output,
// which must reproduce the pipeline's executable hash.
func (ls *layerStats) compile(tr *tracer, parent int, cfg pipeline.Config) (*pipeline.CompileResult, time.Duration, error) {
	src := cfg.SourceFile
	if src == "" {
		src = cfg.Name + ".mc"
	}
	sp := tr.begin(tidReplay, parent, "minic.frontend", nil)
	a0 := totalAlloc()
	t0 := time.Now()
	host, device, err := minic.Compile(src, cfg.Source, cfg.Frontend)
	ls.frontend += time.Since(t0)
	ls.frontendAlloc += totalAlloc() - a0
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin(tidReplay, parent, "aa.chain_build", nil)
	t0 = time.Now()
	for _, m := range []*ir.Module{host, device} {
		if m == nil {
			continue
		}
		if _, err := aa.ChainByName(m, chainSpec(cfg)); err != nil {
			tr.end(sp)
			return nil, 0, err
		}
	}
	ls.chain += time.Since(t0)
	tr.end(sp)

	sp = tr.begin(tidReplay, parent, "pipeline.compile", nil)
	a0 = totalAlloc()
	t0 = time.Now()
	cr, err := pipeline.Compile(cfg)
	d := time.Since(t0)
	ls.compileAlloc += totalAlloc() - a0
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	ls.compiles++
	ls.compileMS = append(ls.compileMS, ms(d))
	ls.compileTotal += d
	tm := cr.Timing()
	ls.passes += tm.Total()
	for _, p := range passMetrics {
		ls.perPass[p.pass] += tm.Get(p.pass).Wall
	}
	aas := cr.AAStats()
	ls.aaQueries += aas.Queries
	ls.aaHits += aas.CacheHits
	ls.aaLookups += aas.CacheLookups()
	ls.oraqlUnique += int64(cr.ORAQLStats().Unique())
	for _, s := range cr.AnalysisStats() {
		ls.anHits += s.Hits
		ls.anMisses += s.Misses
	}

	sp = tr.begin(tidReplay, parent, "codegen.compile", nil)
	t0 = time.Now()
	for _, t := range []*pipeline.TargetStats{cr.Host, cr.Device} {
		if t == nil {
			continue
		}
		if codegen.Compile(t.Module).Hash != t.Code.Hash {
			tr.end(sp)
			return nil, 0, fmt.Errorf("%s: codegen replay changed the executable hash", cfg.Name)
		}
	}
	ls.codegen += time.Since(t0)
	tr.end(sp)
	return cr, d, nil
}

// run replays one interpreter run and its verification.
func (ls *layerStats) run(tr *tracer, parent int, p *irinterp.Program, opts irinterp.Options, vs *verify.Spec) (string, bool, time.Duration) {
	sp := tr.begin(tidReplay, parent, "irinterp.run", nil)
	a0 := totalAlloc()
	t0 := time.Now()
	rr, runErr := irinterp.Run(p, opts)
	d := time.Since(t0)
	ls.runAlloc += totalAlloc() - a0
	tr.end(sp)
	ls.runMS = append(ls.runMS, ms(d))
	ls.runTotal += d
	var stdout string
	if rr != nil {
		stdout = rr.Stdout
		ls.runInstrs += rr.Instrs
	}
	ok := true
	var vd time.Duration
	if vs != nil {
		sp = tr.begin(tidReplay, parent, "verify.check", nil)
		t0 = time.Now()
		ok = vs.Check(stdout, runErr).OK
		vd = time.Since(t0)
		tr.end(sp)
		ls.verifies++
		ls.verify += vd
	}
	return stdout, ok && runErr == nil, d + vd
}

// tracedCampaign is one campaign of the traced sweep.
type tracedCampaign struct {
	cfg   *apps.Config
	res   *driver.Result
	tests []recordedTest
	wall  time.Duration
}

// replayCampaign replays what the driver did for one campaign: the
// baseline, the fully optimistic test, every recorded test, the final
// round test and the final compilation. Like the driver's exe-hash
// cache, a test whose executable was already run is not run again.
func (ls *layerStats) replayCampaign(tr *tracer, c tracedCampaign) error {
	spec := c.cfg.Spec()
	root := tr.begin(tidReplay, -1, "replay.campaign", map[string]any{"config": c.cfg.ID})
	defer tr.end(root)
	item := func(kind string, seq oraql.Seq, orq bool, vs *verify.Spec, seen map[string]bool) (string, bool, time.Duration, error) {
		sp := tr.begin(tidReplay, root, "replay."+kind, map[string]any{"queries": len(seq)})
		defer tr.end(sp)
		cfg := spec.Compile
		cfg.Name = spec.Name
		if orq {
			opts := spec.ORAQL
			opts.Seq = seq
			cfg.ORAQL = &opts
		}
		cr, d, err := ls.compile(tr, sp, cfg)
		if err != nil {
			return "", false, 0, err
		}
		if seen != nil {
			if seen[cr.ExeHash()] {
				return "", true, d, nil
			}
			seen[cr.ExeHash()] = true
		}
		stdout, ok, rd := ls.run(tr, sp, cr.Program, spec.Run, vs)
		return stdout, ok, d + rd, nil
	}

	stdout, _, d, err := item("baseline", nil, false, nil, nil)
	if err != nil {
		return err
	}
	vs := verify.Spec{MaskPatterns: c.cfg.Masks, References: []string{stdout}}
	if err := vs.Compile(); err != nil {
		return err
	}
	ls.phases += d
	seen := map[string]bool{}
	seqs := []oraql.Seq{nil}
	for _, t := range c.tests {
		seqs = append(seqs, t.seq)
	}
	if !c.res.FullyOptimistic {
		seqs = append(seqs, c.res.FinalSeq)
	}
	for i, seq := range seqs {
		_, _, d, err := item("test", seq, true, &vs, seen)
		if err != nil {
			return err
		}
		ls.phases += d
		if i > 0 && i <= len(c.tests) {
			ls.testPhases += d
		}
	}
	_, ok, d, err := item("final", c.res.FinalSeq, true, &vs, nil)
	if err != nil {
		return err
	}
	ls.phases += d
	if !ok {
		return fmt.Errorf("%s: replayed final compilation does not verify", c.cfg.ID)
	}
	return nil
}

// report sets the per-layer metrics the replay measured.
func (ls *layerStats) report(r *result) {
	n := float64(ls.compiles)
	perCompile := func(d time.Duration) float64 { return ratio(ms(d), n) }
	r.set(perLayer, "minic.frontend_ms", perCompile(ls.frontend))
	r.set(perLayer, "minic.alloc_mb", ratio(mb(ls.frontendAlloc), n))
	r.set(perLayer, "aa.chain_build_ms", perCompile(ls.chain))
	r.set(perLayer, "aa.queries_per_compile", ratio(float64(ls.aaQueries), n))
	r.set(perLayer, "aa.query_cache_hit_ratio", ratio(float64(ls.aaHits), float64(ls.aaLookups)))
	r.set(perLayer, "oraql.unique_queries_per_compile", ratio(float64(ls.oraqlUnique), n))
	r.set(perLayer, "passes.total_ms", perCompile(ls.passes))
	for _, p := range passMetrics {
		r.set(perLayer, p.metric, perCompile(ls.perPass[p.pass]))
	}
	r.set(perLayer, "analysis.hit_ratio", ratio(float64(ls.anHits), float64(ls.anHits+ls.anMisses)))
	r.set(perLayer, "codegen.ms", perCompile(ls.codegen))
	r.set(perLayer, "pipeline.compile_ms_p50", median(ls.compileMS))
	r.set(perLayer, "pipeline.compile_ms_p90", percentile(ls.compileMS, 0.9))
	r.set(perLayer, "pipeline.self_ms", perCompile(ls.compileTotal-ls.frontend-ls.passes-ls.codegen))
	r.set(perLayer, "pipeline.alloc_mb_per_compile", ratio(mb(ls.compileAlloc), n))
	r.set(perLayer, "irinterp.run_ms_p50", median(ls.runMS))
	r.set(perLayer, "irinterp.run_ms_p90", percentile(ls.runMS, 0.9))
	r.set(perLayer, "irinterp.minstr_per_s", ratio(float64(ls.runInstrs)/1e6, ls.runTotal.Seconds()))
	r.set(perLayer, "irinterp.alloc_mb_per_run", ratio(mb(ls.runAlloc), float64(len(ls.runMS))))
	r.set(perLayer, "verify.check_ms", ratio(ms(ls.verify), float64(ls.verifies)))
}

// traceProbe is the traced run of probe-cold and probe-par: one
// untraced sweep, one sweep with every consumed test timed through
// testRecorder, then the replay of the traced sweep's tests.
func traceProbe(o *options, r *result, exp *expectations, cfgs []*apps.Config, workers int) error {
	tr := newTracer()
	var plain, traced time.Duration
	for _, c := range cfgs {
		t0 := time.Now()
		if _, err := driver.Probe(probeSpec(c, workers)); err != nil {
			return fmt.Errorf("%s: %w", c.ID, err)
		}
		plain += time.Since(t0)
	}
	var camps []tracedCampaign
	var testMS []float64
	var testTotal time.Duration
	var compiles, tests, cached, spec, wasted int
	for _, c := range cfgs {
		rec := &testRecorder{tr: tr}
		s := probeSpec(c, workers)
		s.Strategy = rec
		rec.parent = tr.begin(tidDriver, -1, "driver.campaign", map[string]any{"config": c.ID})
		t0 := time.Now()
		res, err := driver.Probe(s)
		wall := time.Since(t0)
		tr.end(rec.parent)
		r.Attempted++
		if err != nil {
			r.fail("%s: %v", c.ID, err)
			continue
		}
		traced += wall
		exp.checkProbe(r, c.ID, outcomeOf(res), false)
		camps = append(camps, tracedCampaign{cfg: c, res: res, tests: rec.tests, wall: wall})
		for _, t := range rec.tests {
			testMS = append(testMS, ms(t.dur))
			testTotal += t.dur
		}
		compiles += res.Compiles
		tests += res.TestsRun + res.TestsCached
		cached += res.TestsCached
		spec += res.TestsSpeculated
		wasted += res.TestsWasted
	}
	r.Reps = 1
	ls := newLayerStats()
	var wall time.Duration
	for _, c := range camps {
		if err := ls.replayCampaign(tr, c); err != nil {
			return err
		}
		wall += c.wall
	}
	n := float64(len(camps))
	r.set(perLayer, "driver.compiles_per_campaign", ratio(float64(compiles), n))
	r.set(perLayer, "driver.tests_per_campaign", ratio(float64(tests), n))
	r.set(perLayer, "driver.exe_cache_hit_ratio", ratio(float64(cached), float64(tests)))
	r.set(perLayer, "driver.test_ms_p50", median(testMS))
	r.set(perLayer, "driver.test_ms_p90", percentile(testMS, 0.9))
	r.set(perLayer, "driver.spec_per_campaign", ratio(float64(spec), n))
	r.set(perLayer, "driver.spec_useful_ratio", ratio(float64(spec-wasted), float64(spec)))
	r.set(perLayer, "driver.unattributed_frac", 1-ratio(ls.phases.Seconds(), wall.Seconds()))
	r.set(perLayer, "driver.replay_coverage", ratio(ls.testPhases.Seconds(), testTotal.Seconds()))
	r.set(perLayer, "trace.overhead_frac", ratio(traced.Seconds()-plain.Seconds(), plain.Seconds()))
	ls.report(r)
	return tr.write(o.traceDir, r.Workload)
}

// traceWarm is the traced run of probe-warm: one rep with a span per
// reprobe, reading the driver's and the disk cache's own counters.
func traceWarm(o *options, r *result, exp *expectations, cfgs []*apps.Config, seedDir, work string) error {
	tr := newTracer()
	repDir := filepath.Join(work, "rep-trace")
	if err := copyDir(seedDir, repDir); err != nil {
		return err
	}
	var camps, compiles, tests, cached, disk, replayed, diskHits int
	var dc diskcache.Counters
	for _, c := range cfgs {
		for _, edited := range []bool{false, true} {
			op, spec := reprobe(c, repDir, edited, o.seed)
			sp := tr.begin(tidDriver, -1, "driver.campaign", map[string]any{"config": op.input})
			res, err := op.run()
			tr.end(sp)
			r.Attempted++
			if err != nil {
				r.fail("%s: %v", op.input, err)
				continue
			}
			exp.checkProbe(r, c.ID, outcomeOf(res), edited)
			camps++
			compiles += res.Compiles
			tests += res.TestsRun + res.TestsCached
			cached += res.TestsCached
			disk += res.TestsDisk
			replayed += res.RunsReplayed
			diskHits += res.Baseline.Compile.DiskHits() + res.Final.Compile.DiskHits()
			k := spec.Cache.Counters()
			dc.Hits += k.Hits
			dc.Misses += k.Misses
			dc.Puts += k.Puts
		}
	}
	r.Reps = 1
	store, err := diskcache.Open(repDir)
	if err != nil {
		return err
	}
	_, bytes := store.Usage()
	n := float64(camps)
	r.set(perLayer, "driver.compiles_per_campaign", ratio(float64(compiles), n))
	r.set(perLayer, "driver.tests_per_campaign", ratio(float64(tests), n))
	r.set(perLayer, "driver.exe_cache_hit_ratio", ratio(float64(cached), float64(tests)))
	r.set(perLayer, "driver.tests_disk_ratio", ratio(float64(disk), float64(tests)))
	r.set(perLayer, "driver.runs_replayed_per_campaign", ratio(float64(replayed), n))
	r.set(perLayer, "pipeline.disk_hits_per_compile", ratio(float64(diskHits), float64(compiles)))
	r.set(perLayer, "diskcache.hit_ratio", ratio(float64(dc.Hits), float64(dc.Hits+dc.Misses)))
	r.set(perLayer, "diskcache.puts_per_campaign", ratio(float64(dc.Puts), n))
	r.set(perLayer, "diskcache.usage_mb", mb(uint64(bytes)))
	return tr.write(o.traceDir, r.Workload)
}
