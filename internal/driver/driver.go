// Package driver implements the ORAQL probing driver (paper Section
// IV-B): it compiles a benchmark with increasingly refined response
// sequences until it finds a locally maximal set of queries that can
// be answered "no-alias" without breaking the benchmark's verification.
// Two bisection strategies are provided — the chunked recursion the
// paper settled on, and the frequency-space splitting it compares
// against — plus the executable-hash test cache that skips re-running
// bit-identical binaries.
//
// Deviating from the paper's strictly sequential driver, probing runs
// on a bounded worker pool (BenchSpec.Workers): sibling subranges of
// the chunked recursion and residue classes of the freq-space strategy
// are independent candidates, so the driver speculatively tests the
// likely next candidate beside the consumed one and cancels losers:
// one speculative test at a time, until the first is cancelled
// mid-flight (see engine.go). The decision
// loop itself stays sequential and consumes test outcomes in canonical
// order, so parallel and sequential probing produce bit-identical
// FinalSeq (see engine.go). On more than one core, a campaign without
// a store also runs the fully optimistic test beside the baseline,
// which that test needs only when its output is compared.
package driver

import (
	"context"
	"fmt"
	"io"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// BenchSpec is the benchmark-specific configuration file equivalent:
// compiler invocation, probing scope, run options, and verification.
type BenchSpec struct {
	Name    string
	Compile pipeline.Config // ORAQL field is managed by the driver
	Run     irinterp.Options
	Verify  verify.Spec // empty references: baseline output is recorded
	ORAQL   oraql.Options
	// Strategy is the bisection strategy (see strategies.go); nil means
	// the registered default, Chunked.
	Strategy Strategy
	// Workers bounds the worker pool for speculative parallel probing
	// (0 defaults to runtime.NumCPU(); 1 probes strictly sequentially).
	// The final sequence is identical for every worker count.
	Workers int
	// DisableExeCache turns off the executable-hash test cache (for the
	// ablation benchmark).
	DisableExeCache bool
	// MaxTests bounds probing effort (0 = no bound). The budget counts
	// consumed tests only; speculative tests are free.
	MaxTests int
	// Cache, when non-nil, persists campaign state across processes:
	// test outcomes keyed by the baseline content identity (a repeated
	// campaign replays from disk) and per-query verdicts keyed by
	// function content hashes (a campaign on an edited program seeds
	// its bisection from the unchanged functions' history — see
	// persist.go). The store is also installed as the pipeline's
	// compile cache for the non-ORAQL baseline compilation.
	Cache *diskcache.Store
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// Outcome is one compile+run+verify cycle.
type Outcome struct {
	Compile *pipeline.CompileResult
	Run     *irinterp.Result
	RunErr  error
	Verify  verify.Result
}

// Result is the full probing outcome.
type Result struct {
	Spec *BenchSpec

	// Baseline is the non-ORAQL compilation (the reference).
	Baseline *Outcome
	// Final is the compilation with the discovered sequence.
	Final *Outcome
	// FinalSeq is the locally maximal response sequence.
	FinalSeq oraql.Seq
	// FullyOptimistic reports whether the empty sequence already
	// verified (no pessimistic answers needed).
	FullyOptimistic bool

	// Probing effort counters. Compiles includes speculative compiles;
	// TestsRun + TestsCached counts the tests the decision loop
	// consumed and is identical for every worker count (the split
	// between run and cached may shift with speculative timing).
	Compiles    int
	TestsRun    int
	TestsCached int
	// TestsDisk is the subset of TestsCached whose outcome was replayed
	// from the persistent campaign state (BenchSpec.Cache).
	TestsDisk int
	// RunsReplayed counts baseline/final interpreter runs served from
	// the persistent run-replay layer instead of executing (runcache.go).
	RunsReplayed int
	// TestsSpeculated counts speculative tests launched by the parallel
	// driver; TestsWasted is the subset whose outcome was never
	// consumed by the decision loop (cancelled losers included).
	TestsSpeculated int
	TestsWasted     int
	// StepsRun and StepsReplayed count the (pass, function) steps of the
	// test compiles that executed and that the compile session replayed
	// from an earlier compile's ORAQL transcript (pipeline.Session).
	// ColdFallbacks counts test compiles redone cold because a replayed
	// history did not re-execute as recorded.
	StepsRun      int
	StepsReplayed int
	ColdFallbacks int
}

// GuiltyQueries returns the alias queries the probe had to answer
// pessimistically in the final verified compilation — the queries
// whose optimistic answer breaks the program (or rides along with one
// that does; the chunked strategy does not always isolate singletons).
// It is the programmatic form of the paper's Fig. 3 dump and the
// hand-off point to the difftest triage, which delta-debugs such sets
// further.
func (r *Result) GuiltyQueries() []*oraql.QueryRecord {
	if r.Final == nil || r.Final.Compile == nil {
		return nil
	}
	var out []*oraql.QueryRecord
	for _, rec := range r.Final.Compile.Records() {
		if !rec.Optimistic {
			out = append(out, rec)
		}
	}
	return out
}

// Probe runs the full ORAQL workflow on a benchmark.
func Probe(spec *BenchSpec) (*Result, error) {
	return ProbeContext(context.Background(), spec)
}

// ProbeContext is Probe with cancellation: ctx covers the whole
// workflow — the sequential decision loop checks it before every
// consumed test, speculative workers inherit it, and it is threaded
// into every compilation of the campaign's pipeline.Session, so
// cancelling it stops probing mid-pipeline, not only between tests.
func ProbeContext(ctx context.Context, spec *BenchSpec) (*Result, error) {
	st := &state{ctx: ctx, spec: spec}
	return st.probe()
}

type state struct {
	ctx  context.Context
	spec *BenchSpec
	res  *Result
	// sess compiles the whole campaign from one frontend run: the
	// baseline and final live, the tests through its step memos.
	sess    *pipeline.Session
	eng     *engine
	padLen  int // generous pessimistic padding length
	maxSeen int // highest unique-query count observed

	// Persistent-campaign state (nil/empty without BenchSpec.Cache).
	campID  string // test-outcome identity: content hashes + checkID
	checkID string // check identity: spec config sans module content
	// hint holds the descriptors of the persisted convictions that the
	// fully optimistic compile's query stream matched, and hintAt their
	// positions in that stream; both are nil without one, and the
	// seeded round clears them (persist.go).
	hint   map[string]bool
	hintAt []int
}

func (st *state) logf(format string, args ...any) {
	if st.spec.Log != nil {
		fmt.Fprintf(st.spec.Log, "[oraql-driver] "+format+"\n", args...)
	}
}

// baselineHook, when a test sets it, runs between the baseline compile
// and the baseline run; overlapped reports whether the fully
// optimistic test was started beside the baseline.
var baselineHook func(overlapped bool)

// execute compiles with the given ORAQL options (nil = pass disabled),
// every step live, and runs the program.
func (st *state) execute(opts *oraql.Options) (*Outcome, error) {
	cr, err := st.sess.CompileLive(st.ctx, opts)
	if err != nil {
		return nil, err
	}
	st.res.Compiles++
	if opts == nil && baselineHook != nil {
		baselineHook(st.eng.overlap)
	}
	rr, runErr := st.run(cr)
	out := &Outcome{Compile: cr, Run: rr, RunErr: runErr}
	var stdout string
	if rr != nil {
		stdout = rr.Stdout
	}
	out.Verify = st.spec.Verify.Check(stdout, runErr)
	return out, nil
}

// test verifies a candidate sequence through the engine, optionally
// prefetching speculative candidates onto the worker pool first. Only
// consumed tests update the decision state (budget, counters, drift),
// which keeps the probing decisions independent of worker count.
func (st *state) test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	if err := st.ctx.Err(); err != nil {
		return false, fmt.Errorf("driver: probing cancelled: %w", err)
	}
	if st.spec.MaxTests > 0 && st.res.TestsRun+st.res.TestsCached >= st.spec.MaxTests {
		return false, fmt.Errorf("driver: test budget (%d) exhausted", st.spec.MaxTests)
	}
	for _, s := range specs {
		st.eng.prefetch(s)
	}
	out := st.eng.get(seq)
	if out.err != nil {
		return false, out.err
	}
	if out.unique > st.maxSeen {
		st.maxSeen = out.unique
	}
	if out.didRun {
		st.res.TestsRun++
	} else {
		st.res.TestsCached++
	}
	if out.ok {
		// A success flips decided bits: every candidate speculated from
		// the previous decided state is now a loser.
		st.eng.cancelSpeculative()
	}
	return out.ok, nil
}

func (st *state) probe() (*Result, error) {
	spec := st.spec
	st.res = &Result{Spec: spec}
	if err := spec.Verify.Compile(); err != nil {
		return nil, fmt.Errorf("driver: verify spec: %w", err)
	}
	// The shared store serves the compile cache for the non-ORAQL
	// baseline compilation, which therefore carries the content hashes
	// that identify the campaign and key the per-function verdict
	// history.
	if spec.Cache != nil && spec.Compile.DiskCache == nil {
		spec.Compile.DiskCache = spec.Cache
	}
	cfg := spec.Compile
	cfg.Name = spec.Name
	opts := spec.ORAQL
	cfg.ORAQL = &opts
	st.sess = pipeline.NewSession(cfg)
	st.eng = newEngine(st.ctx, spec, st.sess)
	defer st.eng.shutdown()

	// Step 1: baseline compile and run without ORAQL. A campaign the
	// engine overlaps starts the fully optimistic test (step 2) beside
	// it; that test checks its output only once the references below
	// are recorded, and a failed baseline cancels it.
	if st.eng.overlap {
		st.eng.launch(nil, false)
	}
	base, err := st.execute(nil)
	if err != nil {
		return nil, fmt.Errorf("driver: baseline: %w", err)
	}
	if base.RunErr != nil {
		return nil, fmt.Errorf("driver: baseline run failed: %w", base.RunErr)
	}
	refs := spec.Verify.References
	if len(refs) == 0 {
		spec.Verify.References = []string{base.Run.Stdout}
	}
	base.Verify = spec.Verify.Check(base.Run.Stdout, nil)
	if !base.Verify.OK {
		return nil, fmt.Errorf("driver: baseline does not verify: %s", base.Verify.Diff)
	}
	st.res.Baseline = base
	st.logf("%s: baseline verified (%d instrs)", spec.Name, base.Run.Instrs)
	st.campaignKeys(refs)

	// From here on tests verify concurrently against the frozen spec.
	st.eng.recorded(st.campID)

	// Step 2: fully optimistic attempt (empty sequence), joined when
	// it was started beside the baseline.
	ok, err := st.test(nil)
	if err != nil {
		return nil, err
	}
	if ok {
		st.logf("%s: fully optimistic compilation verified", spec.Name)
		st.res.FullyOptimistic = true
		st.res.FinalSeq = nil
		return st.finalize(nil)
	}
	st.logf("%s: fully optimistic failed; bisecting %d unique queries", spec.Name, st.maxSeen)
	st.loadHint()

	// Step 3: bisection. The padding keeps undecided queries
	// pessimistic; it adapts as query counts drift.
	strat := spec.Strategy
	if strat == nil {
		strat = Chunked
	}
	var final oraql.Seq
	for round := 0; round < 4; round++ {
		n := st.maxSeen
		st.padLen = 2*n + 64
		var decided oraql.Seq
		// The disk-seeded round-0 path tests the candidate the persisted
		// convictions hint at before the chunked recursion, so it applies
		// only when the chunked strategy is in charge.
		if round == 0 && st.hint != nil && strat == Chunked {
			decided, err = st.seededSolve(n)
		} else {
			decided, err = strat.Solve(st, n)
		}
		if err != nil {
			return nil, err
		}
		final = trimTrailingOptimistic(decided)
		ok, err := st.test(final)
		if err != nil {
			return nil, err
		}
		if ok {
			return st.finalize(final)
		}
		st.logf("%s: query count drifted (now %d); re-probing", spec.Name, st.maxSeen)
	}
	// Fall back to the all-pessimistic sequence, which reproduces the
	// baseline compilation behaviour for ORAQL-visible queries.
	final = make(oraql.Seq, st.maxSeen+64)
	ok, err = st.test(final)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("driver: %s: even the all-pessimistic sequence fails verification", spec.Name)
	}
	return st.finalize(final)
}

// finalize recompiles with the final sequence and records results.
func (st *state) finalize(seq oraql.Seq) (*Result, error) {
	// Testing is over: wait out cancelled speculation, then release
	// the session's memos so they are garbage during the final compile.
	st.eng.shutdown()
	st.res.ColdFallbacks = st.sess.Fallbacks()
	st.sess.Release()
	opts := st.spec.ORAQL
	opts.Seq = seq
	fin, err := st.execute(&opts)
	if err != nil {
		return nil, err
	}
	if !fin.Verify.OK {
		return nil, fmt.Errorf("driver: final sequence does not verify: %s", fin.Verify.Diff)
	}
	st.res.Final = fin
	st.res.FinalSeq = seq
	st.res.Compiles += int(st.eng.compiles.Load())
	st.res.TestsSpeculated = int(st.eng.specLaunched.Load())
	st.res.TestsWasted = st.res.TestsSpeculated - int(st.eng.specConsumed.Load())
	st.res.TestsDisk = int(st.eng.diskTests.Load())
	st.res.StepsRun = int(st.eng.stepsRun.Load())
	st.res.StepsReplayed = int(st.eng.stepsReplayed.Load())
	if st.spec.Cache != nil {
		recs := fin.Compile.Records()
		descs := describeQueries(recs)
		st.persistVerdicts(recs, descs)
		st.ingestWarehouse(recs, descs)
	}
	s := fin.Compile.ORAQLStats()
	st.logf("%s: done: %d opt (%d cached), %d pess (%d cached); %d compiles, %d tests (+%d cached, %d from disk, %d speculated, %d wasted); test steps %d run, %d replayed, %d cold fallbacks",
		st.spec.Name, s.UniqueOptimistic, s.CachedOptimistic, s.UniquePessimistic, s.CachedPessimistic,
		st.res.Compiles, st.res.TestsRun, st.res.TestsCached, st.res.TestsDisk, st.res.TestsSpeculated, st.res.TestsWasted,
		st.res.StepsRun, st.res.StepsReplayed, st.res.ColdFallbacks)
	// -time-passes style summary of the final compilation.
	tm := fin.Compile.Timing()
	var runs int64
	for _, pt := range tm.Entries() {
		runs += pt.Runs
	}
	var hits, misses int64
	for _, as := range fin.Compile.AnalysisStats() {
		hits += as.Hits
		misses += as.Misses
	}
	st.logf("%s: final compile: %d pass runs in %.2fms; analysis cache %d hits / %d misses",
		st.spec.Name, runs, float64(tm.Total().Microseconds())/1000, hits, misses)
	return st.res, nil
}

// pad extends a decided prefix with pessimistic padding, preallocating
// the padded sequence in one step.
func (st *state) pad(decided oraql.Seq, upto int) oraql.Seq {
	if upto < len(decided) {
		upto = len(decided)
	}
	out := make(oraql.Seq, upto)
	copy(out, decided)
	return out
}

// state implements Prober — the view strategies get of the probing
// machinery (strategies.go).

// Test verifies one candidate, speculatively prefetching specs.
func (st *state) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	return st.test(seq, specs...)
}

// Pad extends a decided prefix to the current generous padding length.
func (st *state) Pad(decided oraql.Seq) oraql.Seq { return st.pad(decided, st.padLen) }

// Workers is the worker count.
func (st *state) Workers() int { return st.eng.workers }

// Logf prefixes progress lines with the benchmark name.
func (st *state) Logf(format string, args ...any) {
	st.logf("%s: "+format, append([]any{st.spec.Name}, args...)...)
}

// trimTrailingOptimistic drops trailing 1s (queries beyond the sequence
// end are optimistic by definition).
func trimTrailingOptimistic(s oraql.Seq) oraql.Seq {
	end := len(s)
	for end > 0 && s[end-1] {
		end--
	}
	return s[:end].Clone()
}
