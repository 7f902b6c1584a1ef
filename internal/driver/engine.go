package driver

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// testOutcome is one candidate sequence's compile+run+verify verdict.
// It is a pure function of the candidate (compilation is deterministic,
// and the exe-hash cache only ever replays the verify result of a
// bit-identical binary), which is what makes speculative execution safe:
// a result computed ahead of time is the same result the sequential
// driver would have computed on demand.
type testOutcome struct {
	ok       bool
	unique   int  // unique ORAQL query count of this compile
	didRun   bool // false when the verdict came from the exe-hash cache
	fromDisk bool // verdict replayed from the campaign set (persist.go)
	// build is the fully optimistic test's build when it replayed no
	// step, so its records and every counter are exact; nil for every
	// other test.
	build *pipeline.CompileResult
	err   error
}

// testCall is one in-flight or completed test, single-flighted by the
// candidate sequence: duplicate requests wait for the first instead of
// re-running.
type testCall struct {
	key         string
	done        chan struct{}
	out         testOutcome
	speculative bool
	canceled    bool
	cancel      context.CancelFunc
}

// exeEntry single-flights verification by executable hash: a test whose
// binary hash matches an in-flight run waits for that run's verdict
// instead of executing the bit-identical binary again. It keeps the run
// itself too, so finalize need not re-run the binary the final-round
// test already ran.
type exeEntry struct {
	done     chan struct{}
	v        verify.Result
	run      *irinterp.Result
	runErr   error
	canceled bool
}

// engine executes candidate tests for the probing driver: the consumed
// test on the decision loop's goroutine, and at most one speculative
// test and the overlapped fully optimistic test on goroutines of their
// own. The decision loop stays strictly sequential and deterministic;
// the engine adds two layers the loop consults:
//
//   - a single-flight candidate map, so a speculatively prefetched test
//     is joined (not repeated) when the decision loop requests it;
//   - a concurrency-safe, single-flight executable-hash cache, so
//     bit-identical binaries are verified exactly once.
//
// Speculative calls carry a context and are cancelled as losers the
// moment a consumed test succeeds (success flips decided bits, which
// stales every candidate built from the previous decided state).
//
// The engine exists from the start of the campaign. When overlap is
// set, the fully optimistic test runs beside the baseline: it is a
// call in the single-flight map like any other, not speculation, and
// its verification waits until the driver has recorded the verify
// references (recorded). That test's outcome keeps its whole build
// until the driver consumes the verdict: finalize takes the build as
// the final when the test verifies, loadHint its records when it
// fails, and either way the engine holds it no longer.
type engine struct {
	// ctx is the probe-wide context: consumed tests run directly under
	// it, launched tests under children of it, so cancelling the probe
	// stops every in-flight compilation.
	ctx     context.Context
	spec    *BenchSpec
	workers int
	wg      sync.WaitGroup

	// overlap: the campaign has more than one worker and core and no
	// store, so the driver starts the fully optimistic test beside the
	// baseline. A campaign with a store keys that test by the
	// baseline's content hashes, so it waits for the baseline.
	overlap bool
	// refs is closed once the driver has recorded the verify
	// references; no test checks a run's output before.
	refs chan struct{}
	// camp is the loaded campaign set, nil without one. openCampaign
	// sets it only for a campaign with a store, before any test starts.
	camp *campaignSet

	// sess compiles every test: pass steps whose ORAQL transcripts
	// still fit are replayed.
	sess *pipeline.Session

	mu    sync.Mutex
	calls map[string]*testCall
	exe   map[string]*exeEntry

	compiles      atomic.Int64
	stepsRun      atomic.Int64
	stepsReplayed atomic.Int64
	specLaunched  atomic.Int64
	specConsumed  atomic.Int64
	diskTests     atomic.Int64

	// The speculation policy: at most one speculative test is in
	// flight (specActive), and once a speculative test is cancelled
	// mid-flight the campaign speculates no more (speculate goes
	// false). speculate starts true only with more than one worker and
	// more than one core; on one core a speculative compile only
	// steals cycles from the consumed test. On two cores this policy
	// beat both no speculation and a depth held at one without the stop
	// (DESIGN.md, "Speculation policy").
	speculate  atomic.Bool
	specActive atomic.Int64
}

// specHook, when a test sets it, observes the speculation policy: it
// runs after a speculative test is launched (launched true), with the
// number then in flight, and when one is cancelled mid-flight
// (launched false), before the campaign stops speculating.
var specHook func(launched bool, inFlight int64)

func newEngine(ctx context.Context, spec *BenchSpec, sess *pipeline.Session) *engine {
	w := spec.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := &engine{
		ctx:     ctx,
		spec:    spec,
		workers: w,
		refs:    make(chan struct{}),
		sess:    sess,
		calls:   map[string]*testCall{},
		exe:     map[string]*exeEntry{},
	}
	parallel := w > 1 && runtime.GOMAXPROCS(0) > 1
	e.speculate.Store(parallel)
	e.overlap = parallel && spec.Cache == nil
	return e
}

// recorded releases verification: the driver has recorded the verify
// references.
func (e *engine) recorded() { close(e.refs) }

// awaitRefs waits until the verify references are recorded. Only the
// overlapped fully optimistic test can get here before then; it gives
// up when ctx ends first. Once they are recorded it returns nil even
// for a cancelled ctx, so a run that finished is still checked and
// published.
func (e *engine) awaitRefs(ctx context.Context) error {
	select {
	case <-e.refs:
		return nil
	default:
	}
	select {
	case <-e.refs:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// get returns the outcome for a candidate, joining an in-flight or
// completed speculative call when one exists, else testing inline. The
// consumed call is removed from the single-flight map so that a later
// identical candidate re-tests (and is then served by the exe-hash
// cache), exactly like the sequential driver.
func (e *engine) get(seq oraql.Seq) testOutcome {
	key := seq.String()
	for {
		e.mu.Lock()
		if c, ok := e.calls[key]; ok {
			e.mu.Unlock()
			<-c.done
			if c.canceled {
				continue // cancelled speculation: re-issue inline
			}
			e.consume(c)
			if c.speculative {
				e.specConsumed.Add(1)
			}
			if c.out.fromDisk {
				e.diskTests.Add(1)
			}
			return c.out
		}
		c := &testCall{key: key, done: make(chan struct{})}
		e.calls[key] = c
		e.mu.Unlock()
		c.out = e.run(e.ctx, seq)
		close(c.done)
		e.consume(c)
		if c.out.fromDisk {
			e.diskTests.Add(1)
		}
		return c.out
	}
}

// prefetch speculatively launches a candidate test under the
// speculation policy: it is a no-op while a speculative test is in
// flight, once one was cancelled mid-flight, on a campaign with one
// worker or one core, and when the candidate is already in flight.
// Strategies pass their nearest fail-path candidate, the one test
// worth launching. Only the decision loop calls prefetch, so checking
// the in-flight count and then launching cannot overshoot one. The
// count is read first: a speculative test stops speculation before it
// leaves the count, so a zero count means the stop, if any, is
// visible.
func (e *engine) prefetch(seq oraql.Seq) {
	if e.specActive.Load() > 0 || !e.speculate.Load() {
		return
	}
	e.launch(seq, true)
}

// launch starts a test of seq on its own goroutine, under a child of
// the probe context, and registers it in the single-flight map for
// the decision loop to join. It is a no-op when the candidate is
// already in flight. A speculative launch counts toward the
// speculation counters and the in-flight count; the overlapped fully
// optimistic test does not.
func (e *engine) launch(seq oraql.Seq, speculative bool) {
	key := seq.String()
	e.mu.Lock()
	if _, ok := e.calls[key]; ok {
		e.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.ctx)
	c := &testCall{key: key, done: make(chan struct{}), speculative: speculative, cancel: cancel}
	e.calls[key] = c
	e.mu.Unlock()
	if speculative {
		e.specLaunched.Add(1)
		n := e.specActive.Add(1)
		if specHook != nil {
			specHook(true, n)
		}
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		if speculative {
			defer e.specActive.Add(-1)
		}
		out := e.run(ctx, seq)
		e.mu.Lock()
		if errors.Is(out.err, context.Canceled) {
			c.canceled = true
			if e.calls[key] == c {
				delete(e.calls, key)
			}
		}
		c.out = out
		e.mu.Unlock()
		if c.canceled && speculative {
			// Cancelled unconsumed: wasted work. Stop speculating.
			if specHook != nil {
				specHook(false, e.specActive.Load())
			}
			e.speculate.Store(false)
		}
		close(c.done)
	}()
}

// cancelSpeculative cancels every outstanding speculative call. Called
// when a consumed test succeeds: successes flip decided bits, so every
// candidate speculated from the previous decided state is a loser.
func (e *engine) cancelSpeculative() {
	e.mu.Lock()
	for _, c := range e.calls {
		if c.speculative && c.cancel != nil {
			c.cancel()
		}
	}
	e.mu.Unlock()
}

// shutdown cancels every launched test still in flight — speculation,
// and the overlapped test of a campaign whose baseline failed — and
// waits for their goroutines to drain.
func (e *engine) shutdown() {
	e.mu.Lock()
	for _, c := range e.calls {
		if c.cancel != nil {
			c.cancel()
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// consume removes a finished call from the single-flight map.
func (e *engine) consume(c *testCall) {
	e.mu.Lock()
	if e.calls[c.key] == c {
		delete(e.calls, c.key)
	}
	e.mu.Unlock()
}

// run compiles and verifies one candidate. ctx is threaded into the
// compilation and checked again before executing, so a cancelled
// speculative test stops mid-pipeline. A persistent campaign answers
// from its loaded campaign set first — a warm campaign replays every
// test without compiling; the driver learns fresh verdicts as it
// consumes them (state.test).
func (e *engine) run(ctx context.Context, seq oraql.Seq) testOutcome {
	if e.camp != nil {
		if v, ok := e.camp.Tests[candidateHash(seq)]; ok {
			// Counted into diskTests at consumption (get), so the stat
			// stays a subset of the tests the decision loop consumed.
			return testOutcome{ok: v.OK, unique: v.Unique, fromDisk: true}
		}
	}
	if ctx.Err() != nil {
		return testOutcome{err: ctx.Err()}
	}
	cr, err := e.sess.Compile(ctx, seq)
	if err != nil {
		return testOutcome{err: err}
	}
	if cr.DiskHits() == 0 {
		// After a lineage fallback a TU artifact can serve the compile.
		e.compiles.Add(1)
	}
	run, replayed := cr.Steps()
	e.stepsRun.Add(int64(run))
	e.stepsReplayed.Add(int64(replayed))
	out := testOutcome{unique: cr.ORAQLStats().Unique()}
	if len(seq) == 0 && replayed == 0 {
		// The fully optimistic test is the session's first compile, so
		// it replayed nothing: the driver takes its build as the final
		// or places its verdict hint on its records.
		out.build = cr
	}
	if e.spec.DisableExeCache {
		if ctx.Err() != nil {
			return testOutcome{err: ctx.Err()}
		}
		var ent exeEntry
		if err := e.verifyRun(ctx, cr, &ent); err != nil {
			return testOutcome{err: err}
		}
		out.ok = ent.v.OK
		out.didRun = true
		return out
	}

	hash := cr.ExeHash()
	for {
		e.mu.Lock()
		ent, ok := e.exe[hash]
		if !ok {
			ent = &exeEntry{done: make(chan struct{})}
			e.exe[hash] = ent
		}
		e.mu.Unlock()
		if ok {
			// Completed or in-flight run of a bit-identical binary: wait
			// for its verdict instead of re-running.
			<-ent.done
			if ent.canceled {
				continue // owner was cancelled mid-flight; re-claim
			}
			out.ok = ent.v.OK
			return out
		}
		err := ctx.Err()
		if err == nil {
			err = e.verifyRun(ctx, cr, ent)
		}
		if err != nil {
			// Don't publish a cancelled entry: remove it so the next test
			// of this binary runs for real.
			e.mu.Lock()
			delete(e.exe, hash)
			ent.canceled = true
			e.mu.Unlock()
			close(ent.done)
			return testOutcome{err: err}
		}
		close(ent.done)
		out.ok = ent.v.OK
		out.didRun = true
		return out
	}
}

// verifyRun executes the compiled program into ent and, once the
// verify references are recorded, checks its output. It fails only
// when ctx ends while it waits for them.
func (e *engine) verifyRun(ctx context.Context, cr *pipeline.CompileResult, ent *exeEntry) error {
	ent.run, ent.runErr = irinterp.Run(cr.Program, e.spec.Run)
	if err := e.awaitRefs(ctx); err != nil {
		return err
	}
	var stdout string
	if ent.run != nil {
		stdout = ent.run.Stdout
	}
	ent.v = verify.Result{OK: e.spec.Verify.Check(stdout, ent.runErr).OK}
	return nil
}

// ranExe returns the exe-hash entry of a test that already ran the
// binary with this hash, or nil.
func (e *engine) ranExe(hash string) *exeEntry {
	e.mu.Lock()
	ent := e.exe[hash]
	e.mu.Unlock()
	if ent == nil {
		return nil
	}
	<-ent.done
	if ent.canceled {
		return nil
	}
	return ent
}
