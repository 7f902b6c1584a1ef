// Package passes implements the optimization pipeline: a pass manager
// with LLVM-style statistics (-stats), pass-execution tracing
// (-debug-pass=Executions) and timing (-time-passes), and the
// AA-consuming transformation passes whose statistics the paper
// reports in Fig. 6 — EarlyCSE, GVN, MemCpyOpt, DSE, LICM, loop load
// elimination, loop deletion, the loop and SLP vectorizers, and
// sinking — plus the AA-free cleanups (InstSimplify, SimplifyCFG,
// ADCE) that keep the IR canonical.
//
// Passes obtain CFG info and the MemorySSA walker through the
// per-function analysis manager (Context.CFG / Context.MemSSA) and
// report what they preserved by returning an
// analysis.PreservedAnalyses level, the new-pass-manager protocol.
package passes

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/mssa"
)

// StatsRegistry accumulates named counters per pass, mirroring LLVM's
// STATISTIC mechanism surfaced through -mllvm -stats. Only
// deterministic counters belong here — the transparency tests compare
// registries across cached and uncached compilations bit-for-bit;
// wall times go to Timing instead.
type StatsRegistry struct {
	counters map[statKey]int64
	order    []statKey
}

type statKey struct{ Pass, Stat string }

// NewStats returns an empty registry.
func NewStats() *StatsRegistry {
	return &StatsRegistry{counters: map[statKey]int64{}}
}

// Add increments a counter.
func (s *StatsRegistry) Add(pass, stat string, n int64) {
	k := statKey{pass, stat}
	if _, ok := s.counters[k]; !ok {
		s.order = append(s.order, k)
	}
	s.counters[k] += n
}

// Get returns a counter value (0 if never incremented).
func (s *StatsRegistry) Get(pass, stat string) int64 {
	return s.counters[statKey{pass, stat}]
}

// Merge adds other's counters into s, preserving other's insertion
// order for keys s has not seen. The pass manager books each captured
// (pass, function) run into a private registry for the step memo and
// merges it back, which keeps the key order (and therefore the -stats
// output) of an uncaptured compilation.
func (s *StatsRegistry) Merge(other *StatsRegistry) {
	if other == nil {
		return
	}
	for _, k := range other.order {
		if _, ok := s.counters[k]; !ok {
			s.order = append(s.order, k)
		}
		s.counters[k] += other.counters[k]
	}
}

// Entry is one (pass, statistic, value) line of the -stats report.
type Entry struct {
	Pass  string
	Stat  string
	Value int64
}

// Ordered returns all counters in insertion order — the order Merge
// preserves, which the disk cache persists so replayed counters enter
// a warm registry exactly as the cold pipeline inserted them.
func (s *StatsRegistry) Ordered() []Entry {
	out := make([]Entry, len(s.order))
	for i, k := range s.order {
		out[i] = Entry{k.Pass, k.Stat, s.counters[k]}
	}
	return out
}

// Entries returns all counters sorted by pass then statistic name.
func (s *StatsRegistry) Entries() []Entry {
	keys := append([]statKey(nil), s.order...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pass != keys[j].Pass {
			return keys[i].Pass < keys[j].Pass
		}
		return keys[i].Stat < keys[j].Stat
	})
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{k.Pass, k.Stat, s.counters[k]}
	}
	return out
}

// Print renders the registry in the style of LLVM's -stats output.
func (s *StatsRegistry) Print(w io.Writer) {
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	fmt.Fprintln(w, "                          ... Statistics Collected ...")
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	for _, e := range s.Entries() {
		fmt.Fprintf(w, "%8d %s - %s\n", e.Value, e.Pass, e.Stat)
	}
}

// Context carries everything a pass needs: the module, the AA manager
// (with ORAQL possibly at the end of its chain), the statistics
// registry, the per-function analysis manager, and debug options.
type Context struct {
	Module *ir.Module
	AA     *aa.Manager
	Stats  *StatsRegistry

	// Ctx, when non-nil, cancels the pipeline between pass executions:
	// Pipeline.Run stops scheduling passes once it is done. Callers that
	// need the cancellation surfaced as an error check Ctx.Err() after
	// Run returns (pipeline.CompileContext does).
	Ctx context.Context

	// Timing, when non-nil, accumulates per-pass run counts and wall
	// times — the -time-passes report. It is deliberately separate from
	// Stats: wall time is nondeterministic.
	Timing *Timing

	// DisableAnalysisCache runs the analysis manager in force-invalidate
	// mode: every request recomputes its analysis, never trusting
	// declared preservation. This is the reference behaviour the
	// transparency tests compare the cache against.
	DisableAnalysisCache bool

	// DebugPass, when non-nil, receives an "Executing Pass '<name>' on
	// Function '<fn>'" line per executed step, the analogue of
	// -debug-pass=Executions that the paper uses to attribute queries to
	// passes (Fig. 3).
	DebugPass io.Writer

	// Steps, when non-nil, is a compile session's step-reuse plan: a
	// step whose recorded ORAQL transcript still fits is replayed
	// instead of executed. See steps.go.
	Steps *StepPlan

	// StepsRun counts executed (pass, function) steps, re-executions
	// included; StepsReplayed counts steps replayed from Steps.
	StepsRun      int
	StepsReplayed int

	// curPass is the pass currently executing; queries carry it.
	curPass string

	// am is the lazily built analysis manager; use Analyses().
	am *analysis.Manager
}

// Analyses returns the context's analysis manager, built on first
// use over the context's AA manager.
func (c *Context) Analyses() *analysis.Manager {
	if c.am == nil {
		c.am = analysis.NewManager(c.AA, !c.DisableAnalysisCache)
	}
	return c.am
}

// CFG returns fn's control-flow analyses (cached until a pass fails to
// preserve them).
func (c *Context) CFG(fn *ir.Func) *cfg.Info { return c.Analyses().CFG(fn) }

// MemSSA returns fn's MemorySSA clobber walker (cached with the CFG).
func (c *Context) MemSSA(fn *ir.Func) *mssa.Walker { return c.Analyses().MemSSA(fn) }

// InvalidateAll drops every cached analysis for fn. Passes that
// restructure the CFG mid-run (loop rotation, vectorization) call this
// between iterations before re-fetching CFG info.
func (c *Context) InvalidateAll(fn *ir.Func) {
	c.Analyses().Invalidate(fn, analysis.None)
}

// Query returns the AA query context for the currently running pass.
func (c *Context) Query(fn *ir.Func) *aa.QueryCtx {
	return &aa.QueryCtx{Pass: c.curPass, Func: fn}
}

// QueryAs returns an AA query context attributed to a named analysis
// (e.g. "Memory SSA") rather than the running transformation pass.
func (c *Context) QueryAs(name string, fn *ir.Func) *aa.QueryCtx {
	return &aa.QueryCtx{Pass: name, Func: fn}
}

// Pass is a function transformation pass.
type Pass interface {
	// Name is the human-readable pass name used in statistics and
	// query attribution (matching the paper's pass names).
	Name() string
	// Run transforms fn and declares which analyses it preserved:
	// All when nothing changed, CFGOnly when instructions changed but
	// block structure did not, None after CFG surgery.
	Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses
}

// Pipeline is an ordered list of passes run over every function.
type Pipeline struct {
	Passes []Pass
}

// O3Pipeline mirrors the structure of the default -O3 pipeline: local
// cleanups, then the AA-driven scalar optimizations, then loop
// optimizations and vectorization, then final cleanups. Two rounds of
// the scalar passes approximate LLVM's iteration.
func O3Pipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		&InstSimplify{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&GVN{},
		&MemCpyOpt{},
		&DSE{},
		&LICM{},
		&LoopLoadElim{},
		// Vectorization runs on the canonical top-tested form...
		&LoopVectorize{},
		&SLPVectorize{},
		// ...then rotation exposes guaranteed-to-execute bodies to the
		// second, stronger scalar round (LLVM's loop-rotate-before-LICM
		// ordering).
		&LoopRotate{},
		&LICM{},
		&GVN{},
		&DSE{},
		&LoopDeletion{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&Sink{},
		&ADCE{},
		&SimplifyCFG{},
	}}
}

// O1Pipeline is a reduced pipeline without vectorization or loop
// deletion, used by the pipeline-comparison experiments.
func O1Pipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		&InstSimplify{},
		&SimplifyCFG{},
		&EarlyCSE{},
		&GVN{},
		&DSE{},
		&LICM{},
		&ADCE{},
		&SimplifyCFG{},
	}}
}

// Run executes the pipeline over every function in ctx.Module, one
// pass at a time and, within a pass, one function at a time in module
// order — the order of LLVM's function pass manager. After each pass
// run it applies the pass's preservation level to the analysis
// manager; any level but All also marks the step as a change for the
// step memo and -time-passes.
//
// A step-reuse plan (ctx.Steps) stops the run early when it fails;
// the caller checks StepPlan.Failed.
func (p *Pipeline) Run(ctx *Context) {
	sp := ctx.Steps
	for pi, pass := range p.Passes {
		for fi, fn := range ctx.Module.Funcs {
			if ctx.Ctx != nil && ctx.Ctx.Err() != nil {
				ctx.curPass = ""
				return
			}
			if len(fn.Blocks) == 0 {
				continue
			}
			if sp != nil {
				if sp.replay(ctx, p, pi, fi) {
					continue
				}
				if sp.Failed() {
					ctx.curPass = ""
					return
				}
				// The plan may have swapped a shared body for a copy.
				fn = ctx.Module.Funcs[fi]
			}
			shared := ctx.Stats
			if sp != nil {
				// Book this run privately so the memo holds exactly this
				// (pass, function) delta; merging back into the shared
				// registry preserves key insertion order.
				ctx.Stats = NewStats()
			}
			pa, elapsed := ctx.runStep(pass, fn)
			if sp != nil {
				local := ctx.Stats
				ctx.Stats = shared
				shared.Merge(local)
				sp.endLive(fi, local, pa != analysis.All)
			}
			if ctx.Timing != nil {
				ctx.Timing.Record(pass.Name(), elapsed, pa != analysis.All)
			}
		}
	}
	if sp != nil {
		sp.finish(ctx, p)
	}
	ctx.curPass = ""
}

// runStep executes one (pass, function) step and applies its
// preservation level; elapsed times the pass alone.
func (ctx *Context) runStep(pass Pass, fn *ir.Func) (pa analysis.PreservedAnalyses, elapsed time.Duration) {
	ctx.curPass = pass.Name()
	if ctx.DebugPass != nil {
		fmt.Fprintf(ctx.DebugPass, "Executing Pass '%s' on Function '%s'...\n", pass.Name(), fn.Name)
	}
	start := time.Now()
	pa = pass.Run(fn, ctx)
	elapsed = time.Since(start)
	fn.Compact()
	ctx.Analyses().Invalidate(fn, pa)
	ctx.StepsRun++
	return pa, elapsed
}
