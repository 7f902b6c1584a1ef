package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

// seqRecorder is a chunked strategy that records every sequence the
// decision loop consumes.
type seqRecorder struct{ seqs []oraql.Seq }

func (r *seqRecorder) Name() string { return driver.Chunked.Name() }

func (r *seqRecorder) Solve(p driver.Prober, n int) (oraql.Seq, error) {
	return driver.Chunked.Solve(recordingProber{p, r}, n)
}

type recordingProber struct {
	driver.Prober
	rec *seqRecorder
}

func (p recordingProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	p.rec.seqs = append(p.rec.seqs, seq.Clone())
	return p.Prober.Test(seq, specs...)
}

// campaignSeqs returns the sequences a sequential chunked campaign of
// the configuration consumes, the empty sequence first; fullChain runs
// the campaign with the full AA chain.
func campaignSeqs(t *testing.T, c *apps.Config, fullChain bool) []oraql.Seq {
	t.Helper()
	rec := &seqRecorder{}
	spec := c.Spec()
	spec.Compile.FullAAChain = fullChain
	spec.Strategy = rec
	spec.Workers = 1
	res, err := driver.Probe(spec)
	if err != nil {
		t.Fatalf("%s: probe: %v", c.ID, err)
	}
	return append([]oraql.Seq{nil}, append(rec.seqs, res.FinalSeq)...)
}

// randomSeqs draws n sequences: half mutate a campaign sequence in a
// few positions (so histories diverge mid-pipeline), half are fresh.
func randomSeqs(rng *rand.Rand, base []oraql.Seq, n int) []oraql.Seq {
	maxLen := 8
	for _, s := range base {
		maxLen = max(maxLen, len(s)+8)
	}
	out := make([]oraql.Seq, n)
	for i := range out {
		if i%2 == 0 && len(base) > 1 {
			s := base[1+rng.Intn(len(base)-1)].Clone()
			for k := 0; k < 1+rng.Intn(3) && len(s) > 0; k++ {
				j := rng.Intn(len(s))
				s[j] = !s[j]
			}
			out[i] = s
			continue
		}
		s := make(oraql.Seq, rng.Intn(maxLen))
		for j := range s {
			s[j] = rng.Intn(10) < 7
		}
		out[i] = s
	}
	return out
}

// outcome is what a session compilation must share with a cold one.
type outcome struct {
	hash  string
	stats oraql.Stats
	pass  string // -stats counters, in insertion order
	code  string // per-function machine statistics (Fig. 7)
	err   error
}

func outcomeOf(cr *pipeline.CompileResult, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{hash: cr.ExeHash(), stats: cr.ORAQLStats()}
	for _, ts := range []*pipeline.TargetStats{cr.Host, cr.Device} {
		if ts != nil {
			o.pass += fmt.Sprint(ts.Pass.Ordered())
			o.code += fmt.Sprintf("%+v", ts.Code.Funcs)
		}
	}
	return o
}

// diff describes how a session outcome differs from the cold one.
func (o outcome) diff(cold outcome) string {
	switch {
	case (o.err != nil) != (cold.err != nil):
		return fmt.Sprintf("session err %v, cold err %v", o.err, cold.err)
	case o.hash != cold.hash || o.stats != cold.stats:
		return fmt.Sprintf("session %s %+v, cold %s %+v", o.hash, o.stats, cold.hash, cold.stats)
	case o.pass != cold.pass:
		return fmt.Sprintf("pass statistics differ:\nsession %s\ncold    %s", o.pass, cold.pass)
	case o.code != cold.code:
		return fmt.Sprintf("machine statistics differ:\nsession %s\ncold    %s", o.code, cold.code)
	}
	return ""
}

// coldCompile compiles cfg with sequence seq from a fresh frontend run.
func coldCompile(cfg pipeline.Config, seq oraql.Seq) (*pipeline.CompileResult, error) {
	opts := *cfg.ORAQL
	opts.Seq = seq
	cfg.ORAQL = &opts
	return pipeline.CompileContext(context.Background(), cfg)
}

// checkSession compiles every sequence cold and, from workers
// concurrent callers, on one shared session, and compares the
// executable hashes, ORAQL counters, pass statistics and per-function
// machine statistics.
func checkSession(t *testing.T, name string, cfg pipeline.Config, seqs []oraql.Seq, workers int) (replayed int) {
	t.Helper()
	compile := func(seq oraql.Seq, sess *pipeline.Session) (o outcome, replayed int) {
		var cr *pipeline.CompileResult
		var err error
		if sess != nil {
			cr, err = sess.Compile(context.Background(), seq)
		} else {
			cr, err = coldCompile(cfg, seq)
		}
		if err == nil {
			_, replayed = cr.Steps()
		}
		return outcomeOf(cr, err), replayed
	}
	want := make([]outcome, len(seqs))
	for i, s := range seqs {
		want[i], _ = compile(s, nil)
	}
	sess := pipeline.NewSession(cfg)
	got := make([]outcome, len(seqs))
	// The first compilation runs alone: it is the fully live one.
	got[0], _ = compile(seqs[0], sess)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seqs) {
					return
				}
				o, r := compile(seqs[i], sess)
				mu.Lock()
				got[i] = o
				replayed += r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i := range seqs {
		if d := got[i].diff(want[i]); d != "" {
			t.Errorf("%s seq %d [%s]: %s", name, i, seqs[i], d)
		}
	}
	if n := sess.Fallbacks(); n != 0 {
		t.Errorf("%s: %d cold fallbacks, want 0", name, n)
	}
	return replayed
}

// liveOutcome renders what the probe driver reads of a baseline or
// final compile: exe hash, -stats, per-function machine statistics,
// AA statistics and every query record with its locations.
func liveOutcome(cr *pipeline.CompileResult) string {
	var sb strings.Builder
	o := outcomeOf(cr, nil)
	fmt.Fprintf(&sb, "%s\n%+v\n%s\n%s\n%+v\n", o.hash, o.stats, o.pass, o.code, *cr.AAStats())
	for _, rec := range cr.Records() {
		a, b := rec.LocDescriptions()
		sa, sb2 := rec.SrcLocs()
		fmt.Fprintf(&sb, "%d %t %s %s %s %s %d %s %s\n", rec.Index, rec.Optimistic,
			rec.Pass, rec.Func, a, b, rec.CacheHits, sa, sb2)
	}
	return sb.String()
}

// checkLive compiles cfg the way the probe driver uses a session — a
// live compile without ORAQL, test compilations of seqs, Release, then
// a live compile with the final sequence — and compares both live
// compiles with CompileContext.
func checkLive(t *testing.T, name string, cfg pipeline.Config, seqs []oraql.Seq, final oraql.Seq) {
	t.Helper()
	ctx := context.Background()
	opts := *cfg.ORAQL
	opts.Seq = final
	sess := pipeline.NewSession(cfg)
	base, err := sess.CompileLive(ctx, nil)
	if err != nil {
		t.Fatalf("%s: live baseline: %v", name, err)
	}
	for _, s := range seqs {
		if _, err := sess.Compile(ctx, s); err != nil {
			t.Fatalf("%s: session test compile: %v", name, err)
		}
	}
	sess.Release()
	fin, err := sess.CompileLive(ctx, &opts)
	if err != nil {
		t.Fatalf("%s: live final: %v", name, err)
	}
	for _, leg := range []struct {
		name string
		opts *oraql.Options
		got  *pipeline.CompileResult
	}{{"baseline", nil, base}, {"final", &opts, fin}} {
		c := cfg
		c.ORAQL = leg.opts
		want, err := pipeline.CompileContext(ctx, c)
		if err != nil {
			t.Fatalf("%s/%s: cold: %v", name, leg.name, err)
		}
		if g, w := liveOutcome(leg.got), liveOutcome(want); g != w {
			t.Errorf("%s/%s: live compile differs from CompileContext:\nlive\n%s\ncold\n%s", name, leg.name, g, w)
		}
	}
}

// TestSessionMatchesCold: for every configuration, in every ORAQL
// mode, the sequences a chunked campaign consumes plus 20 seeded
// random ones compile on one shared session — from concurrent callers
// — to the executable hash, ORAQL counters, pass statistics and
// per-function machine statistics of a cold compilation. The session's
// live compiles, without ORAQL and with the campaign's final sequence,
// match CompileContext in everything the probe driver reads. The
// FullAAChain leg does the same with the CFL points-to analyses in the
// chain, as campaigns with the "full" chain run: the sequences of a
// full-chain campaign plus 10 random ones, in the optimistic mode.
func TestSessionMatchesCold(t *testing.T) {
	modes := []oraql.Mode{oraql.ModeOptimistic, oraql.ModeBlocking, oraql.ModeOptimisticMust}
	total := 0
	for ci, c := range apps.All() {
		c := c
		seqs := campaignSeqs(t, c, false)
		final := seqs[len(seqs)-1]
		seqs = append(seqs, randomSeqs(rand.New(rand.NewSource(int64(ci))), seqs, 20)...)
		for _, mode := range modes {
			spec := c.Spec()
			cfg := spec.Compile
			cfg.Name = spec.Name
			opts := spec.ORAQL
			opts.Mode = mode
			cfg.ORAQL = &opts
			name := fmt.Sprintf("%s/mode%d", c.ID, mode)
			total += checkSession(t, name, cfg, seqs, 4)
			checkLive(t, name, cfg, seqs[:min(len(seqs), 4)], final)
		}
	}
	if total == 0 {
		t.Fatal("no step was replayed anywhere: the session never reused work")
	}
	t.Run("FullAAChain", func(t *testing.T) {
		total := 0
		for ci, c := range apps.All() {
			seqs := campaignSeqs(t, c, true)
			final := seqs[len(seqs)-1]
			seqs = append(seqs, randomSeqs(rand.New(rand.NewSource(int64(100+ci))), seqs, 10)...)
			spec := c.Spec()
			cfg := spec.Compile
			cfg.Name = spec.Name
			cfg.FullAAChain = true
			opts := spec.ORAQL
			opts.Mode = oraql.ModeOptimistic
			cfg.ORAQL = &opts
			name := c.ID + "/full"
			total += checkSession(t, name, cfg, seqs, 4)
			checkLive(t, name, cfg, seqs[:min(len(seqs), 4)], final)
		}
		if total == 0 {
			t.Fatal("no step was replayed anywhere: the session never reused work")
		}
	})
}

// runOutcome renders everything a run reports: the whole result —
// stdout, instruction and cycle counts, device counters, per-kernel
// cycles and launches — or the trap.
func runOutcome(p *irinterp.Program, opts irinterp.Options) string {
	rr, err := irinterp.Run(p, opts)
	if err != nil {
		return "trap: " + err.Error()
	}
	return fmt.Sprintf("%+v", *rr)
}

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSessionRunsLikeCold runs what a session compiles — fully live,
// then fully replayed from stored bodies — against the cold program
// for every configuration, with its own run options (lulesh-mpi runs
// two ranks) and with a step limit that traps partway: the whole
// result, or the trap, must be the cold program's. Each program runs
// twice; the second run must be served from the session's code cache,
// so it allocates less than a run of the same program that decodes
// its own code.
func TestSessionRunsLikeCold(t *testing.T) {
	for _, c := range apps.All() {
		spec := c.Spec()
		cfg := spec.Compile
		cfg.Name = spec.Name
		opts := spec.ORAQL
		cfg.ORAQL = &opts
		cold, err := pipeline.Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		trapping := spec.Run
		trapping.StepLimit = 1000
		if rr, err := irinterp.Run(cold.Program, spec.Run); err == nil {
			trapping.StepLimit = max(1, (rr.Instrs+rr.DeviceInstrs)/4)
		}
		sess := pipeline.NewSession(cfg)
		for i := 0; i < 2; i++ {
			cr, err := sess.Compile(context.Background(), nil)
			if err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
			if cr.Program.Code == nil {
				t.Fatalf("%s compile %d: a session test program has no code cache", c.ID, i)
			}
			for _, ro := range []irinterp.Options{spec.Run, trapping} {
				want := runOutcome(cold.Program, ro)
				for run := 0; run < 2; run++ {
					var got string
					n := mallocs(func() { got = runOutcome(cr.Program, ro) })
					if got != want {
						t.Fatalf("%s compile %d run %d (step limit %d): session run differs from cold:\nsession %s\ncold    %s",
							c.ID, i, run, ro.StepLimit, got, want)
					}
					if run == 1 {
						own := *cr.Program
						own.Code = nil
						if nOwn := mallocs(func() { runOutcome(&own, ro) }); n >= nOwn {
							t.Errorf("%s compile %d (step limit %d): the second run allocated %d objects, a run decoding its own code %d: not served from the code cache",
								c.ID, i, ro.StepLimit, n, nOwn)
						}
					}
				}
			}
			if _, replayed := cr.Steps(); i == 1 && replayed == 0 {
				t.Errorf("%s: the repeated compile replayed nothing", c.ID)
			}
		}
	}
}

// cloneConfigs yields the programs the clone tests cover: every app
// configuration and the first 100 progen programs.
func cloneConfigs(t *testing.T) []pipeline.Config {
	t.Helper()
	var out []pipeline.Config
	for _, c := range apps.All() {
		spec := c.Spec()
		cfg := spec.Compile
		cfg.Name = spec.Name
		out = append(out, cfg)
	}
	n := 100
	if testing.Short() {
		n = 25
	}
	for seed := 0; seed < n; seed++ {
		p := progen.Generate(int64(seed), progen.Options{})
		out = append(out, pipeline.Config{Name: fmt.Sprintf("progen%d", seed), Source: p.Source, SourceFile: p.FileName})
	}
	return out
}

// vids lists every value identity of a module in a fixed order, with
// each function's next-ID counters.
func vids(m *ir.Module) string {
	var sb strings.Builder
	for _, g := range m.Globals {
		fmt.Fprintf(&sb, "g%d ", g.VID())
	}
	for _, f := range m.Funcs {
		fmt.Fprintf(&sb, "\nf%d %s next=%d/%d:", f.ID, f.Name, f.NextInstrID(), f.NextBlockID())
		for _, a := range f.Params {
			fmt.Fprintf(&sb, " a%d", a.VID())
		}
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, " b%d", b.ID)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, " %d", in.VID())
			}
		}
	}
	return sb.String()
}

// TestModuleClone: a clone prints like the original, keeps every VID
// and next-ID counter, compiles without touching the original, and
// compiles to the executable of a fresh frontend run — host and device;
// a device clone shares the original's globals, and with them the host
// half's.
func TestModuleClone(t *testing.T) {
	for _, cfg := range cloneConfigs(t) {
		host, device, err := minic.Compile(cfg.SourceFile, cfg.Source, cfg.Frontend)
		if err != nil {
			t.Fatalf("%s: frontend: %v", cfg.Name, err)
		}
		fresh, err := pipeline.Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		targets := []*pipeline.TargetStats{fresh.Host, fresh.Device}
		for i, m := range []*ir.Module{host, device} {
			if m == nil {
				continue
			}
			text := m.String()
			cl := m.Clone()
			if cl.String() != text {
				t.Fatalf("%s/%s: clone prints differently", cfg.Name, m.Target)
			}
			if vids(cl) != vids(m) {
				t.Fatalf("%s/%s: clone changed value identities", cfg.Name, m.Target)
			}
			if m == device {
				// The device half shares the host half's globals by
				// identity. A clone shares its original's globals, so
				// a device clone keeps sharing the host half's.
				for i, g := range device.Globals {
					if cl.Globals[i] != g {
						t.Fatalf("%s: device global %s: the clone does not share it", cfg.Name, g.Name)
					}
				}
			}
			// Optimize the clone in place; the original must not move,
			// and the clone must lower to the fresh frontend's code.
			c := cfg
			c.Module = cl
			cr, err := pipeline.Compile(c)
			if err != nil {
				t.Fatalf("%s/%s: compiling the clone: %v", cfg.Name, m.Target, err)
			}
			if m.String() != text {
				t.Fatalf("%s/%s: compiling the clone changed the original", cfg.Name, m.Target)
			}
			if got, want := cr.Host.Code.HashString(), targets[i].Code.HashString(); got != want {
				t.Errorf("%s/%s: the clone compiles to %s, a fresh frontend to %s", cfg.Name, m.Target, got, want)
			}
		}
	}
}

// TestSessionConcurrentCallers is small enough for -race -count=10: on
// a few configurations, 8 callers compile overlapping sequences
// through one session, each in its own order, so the same steps,
// final bodies and lowerings are published concurrently. A ninth
// caller compiles the live baseline, racing the session's first
// Compile(nil) for the frontend run. Every result must match the cold
// compilation.
func TestSessionConcurrentCallers(t *testing.T) {
	const callers = 8
	for ci, id := range []string{"lulesh-seq", "minigmg-sse", "xsbench-cuda"} {
		spec := apps.ByID(id).Spec()
		cfg := spec.Compile
		cfg.Name = spec.Name
		opts := spec.ORAQL
		cfg.ORAQL = &opts
		rng := rand.New(rand.NewSource(int64(ci)))
		seqs := append([]oraql.Seq{nil, make(oraql.Seq, 8)}, randomSeqs(rng, nil, 4)...)
		want := make([]outcome, len(seqs))
		for i, s := range seqs {
			want[i] = outcomeOf(coldCompile(cfg, s))
		}
		live := cfg
		live.ORAQL = nil
		wantLive := outcomeOf(pipeline.CompileContext(context.Background(), live))
		sess := pipeline.NewSession(cfg)
		var replayed atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		// A probe campaign's baseline compiles live beside its fully
		// optimistic test, the session's first Compile(nil).
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if d := outcomeOf(sess.CompileLive(context.Background(), nil)).diff(wantLive); d != "" {
				t.Errorf("%s live baseline: %s", id, d)
			}
		}()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range seqs {
					i := (c + k) % len(seqs)
					cr, err := sess.Compile(context.Background(), seqs[i])
					if err == nil {
						_, r := cr.Steps()
						replayed.Add(int64(r))
					}
					if d := outcomeOf(cr, err).diff(want[i]); d != "" {
						t.Errorf("%s caller %d seq %d [%s]: %s", id, c, i, seqs[i], d)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := sess.Fallbacks(); n != 0 {
			t.Errorf("%s: %d cold fallbacks, want 0", id, n)
		}
		if replayed.Load() == 0 {
			t.Errorf("%s: no step was replayed", id)
		}
	}
}

// programText prints a compilation's modules.
func programText(cr *pipeline.CompileResult) string {
	text := cr.Host.Module.String()
	if cr.Device != nil {
		text += cr.Device.Module.String()
	}
	return text
}

// TestSessionSharedIRIsReadOnly is small enough for -race -count=10:
// a session's compilations share IR — the pristine modules they start
// from and the final bodies they store — so no compilation may write
// IR that another reads. On a few configurations, 8 callers compile
// and run overlapping sequences through one session, each in its own
// order; every caller must get the same program and run for a
// sequence, and every returned module must still print as it did when
// its compilation returned. Then the memos are released and one more
// compilation runs, which must not write the pristine modules either:
// the live baseline and final must match CompileContext, and compiling
// every sequence again must give its first result.
func TestSessionSharedIRIsReadOnly(t *testing.T) {
	const callers = 8
	ctx := context.Background()
	for ci, id := range []string{"lulesh-seq", "minigmg-sse", "xsbench-cuda"} {
		spec := apps.ByID(id).Spec()
		cfg := spec.Compile
		cfg.Name = spec.Name
		opts := spec.ORAQL
		cfg.ORAQL = &opts
		rng := rand.New(rand.NewSource(int64(ci)))
		seqs := append([]oraql.Seq{nil, make(oraql.Seq, 8)}, randomSeqs(rng, nil, 4)...)
		type compiled struct {
			out  outcome
			text string // the modules as printed when Compile returned
			run  string
			cr   *pipeline.CompileResult
		}
		got := make([][]compiled, callers)
		sess := pipeline.NewSession(cfg)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			got[c] = make([]compiled, len(seqs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range seqs {
					i := (c + k) % len(seqs)
					cr, err := sess.Compile(ctx, seqs[i])
					if err != nil {
						t.Errorf("%s caller %d seq %d: %v", id, c, i, err)
						return
					}
					rr, runErr := irinterp.Run(cr.Program, spec.Run)
					got[c][i] = compiled{outcomeOf(cr, nil), programText(cr), fmt.Sprintf("%+v %v", rr, runErr), cr}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for c := range got {
			for i, g := range got[c] {
				if d := g.out.diff(got[0][i].out); d != "" {
					t.Errorf("%s caller %d seq %d: differs from caller 0: %s", id, c, i, d)
				}
				if g.run != got[0][i].run {
					t.Errorf("%s caller %d seq %d: run differs from caller 0:\n%s\n%s", id, c, i, g.run, got[0][i].run)
				}
				if programText(g.cr) != g.text {
					t.Errorf("%s caller %d seq %d: the returned modules changed after Compile returned", id, c, i)
				}
			}
		}

		sess.Release()
		if _, err := sess.Compile(ctx, seqs[len(seqs)-1]); err != nil {
			t.Fatalf("%s: compile after Release: %v", id, err)
		}
		final := opts
		final.Seq = seqs[len(seqs)-1]
		for _, leg := range []struct {
			name string
			opts *oraql.Options
		}{{"baseline", nil}, {"final", &final}} {
			live, err := sess.CompileLive(ctx, leg.opts)
			if err != nil {
				t.Fatalf("%s/%s: live: %v", id, leg.name, err)
			}
			c := cfg
			c.ORAQL = leg.opts
			want, err := pipeline.CompileContext(ctx, c)
			if err != nil {
				t.Fatalf("%s/%s: cold: %v", id, leg.name, err)
			}
			if g, w := liveOutcome(live), liveOutcome(want); g != w {
				t.Errorf("%s/%s: live compile after Release differs from CompileContext:\nlive\n%s\ncold\n%s", id, leg.name, g, w)
			}
		}
		for i, s := range seqs {
			if d := outcomeOf(sess.Compile(ctx, s)).diff(got[0][i].out); d != "" {
				t.Errorf("%s seq %d [%s]: compiling again after Release: %s", id, i, s, d)
			}
		}
	}
}

// bodies returns the function bodies of a compilation's modules.
func bodies(cr *pipeline.CompileResult) []*ir.Func {
	out := slices.Clone(cr.Program.Host.Funcs)
	if cr.Program.Device != nil {
		out = append(out, cr.Program.Device.Funcs...)
	}
	return out
}

// TestSessionVerifiesEachFinalBodyOnce counts the bodies that
// post-optimization verification checks in one session: every body of
// the first compilation, none when the same sequence compiles again,
// exactly the live bodies of a sequence that makes some function live,
// and every body again after Release.
func TestSessionVerifiesEachFinalBodyOnce(t *testing.T) {
	var checked []*ir.Func
	defer pipeline.SetVerifyHook(func(f *ir.Func) { checked = append(checked, f) })()
	ctx := context.Background()
	for _, id := range []string{"lulesh-seq", "testsnap-fortran", "xsbench-cuda"} {
		spec := apps.ByID(id).Spec()
		cfg := spec.Compile
		cfg.Name = spec.Name
		opts := spec.ORAQL
		cfg.ORAQL = &opts
		sess := pipeline.NewSession(cfg)
		compile := func(seq oraql.Seq) (*pipeline.CompileResult, []*ir.Func) {
			t.Helper()
			checked = nil
			cr, err := sess.Compile(ctx, seq)
			if err != nil {
				t.Fatalf("%s [%s]: %v", id, seq, err)
			}
			return cr, checked
		}
		same := func(what string, got, want []*ir.Func) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Errorf("%s: %s: verified %d bodies, want %d", id, what, len(got), len(want))
			}
		}

		first, got := compile(nil)
		same("first compilation", got, bodies(first))
		_, got = compile(nil)
		same("repeat of the first sequence", got, nil)

		// One pessimistic answer halfway through the queries makes the
		// function that asks it live from that step on; the others
		// replay to the end and take their stored bodies.
		n := first.ORAQLStats().UniqueOptimistic
		seq := make(oraql.Seq, n/2+1)
		for i := range n / 2 {
			seq[i] = true
		}
		third, got := compile(seq)
		earlier := bodies(first)
		var live []*ir.Func
		for _, f := range bodies(third) {
			if !slices.Contains(earlier, f) {
				live = append(live, f)
			}
		}
		if len(live) == 0 || len(live) == len(earlier) {
			t.Fatalf("%s: %d of %d bodies live; the sequence must make some but not all live", id, len(live), len(earlier))
		}
		same("one pessimistic answer", got, live)

		sess.Release()
		released, got := compile(seq)
		same("after Release", got, bodies(released))
	}
}
