package passes

import (
	"sync"

	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
)

// Step reuse serves the compilations of one probe campaign, which
// differ only in their ORAQL response sequence. Each live (pass,
// function) step records the ORAQL transcript it produced; a later
// compilation skips a step whose transcript still fits its own
// sequence and pair cache, because of the lineage invariant:
//
//	A step's output depends only on its function's body, the AA chain
//	built from the pristine module, and the answers the step got.
//
// It holds because passes read only the function they run on, callee
// effects are looked up by name (ir.CalleeEffects), and the chain's
// module-level analyses are built per compilation from the pristine
// bodies. So the body a step sees is fixed by the transcripts of the
// function's earlier steps: per function the memo is a tree rooted at
// the pristine body whose edges are recorded steps.
//
// A compilation starts from a shell of the pristine module: its
// function slots point at the pristine bodies, which it must not write.
// It walks each function down the tree while transcripts fit, applying
// each replayed step's effects to the responder (cursor, pair cache,
// counters) and to the statistics. At the first step no recorded
// transcript fits, it copies the pristine body into its slot,
// re-executes the function's replayed steps on the copy, answering
// from the transcripts (oraql.Pass.Script), then runs that step and
// every later one live, recording new edges. A function replayed to
// the end takes the stored final body by pointer and is never copied.
// A re-executed step that asks a different pair key than its
// transcript breaks the invariant: the plan fails and the caller
// compiles cold instead.
//
// By the same invariant a node is its body's identity, so a live
// function's body becomes its node's final body without a copy and
// without comparing it to other nodes' bodies, and its lowering to
// machine code, which depends only on the body and the target, is
// stored beside it (StepPlan.Lowered). Final bodies are frozen: every
// later compilation that ends at the node shares the body, so nothing
// may write it once the pipeline has finished.
//
// Sharing bodies makes the module-level analyses see different
// objects than the passes query: a shell's chain is built from the
// pristine bodies, and a live function runs on a copy. Such analyses
// therefore key values clone-stably — instructions, arguments and
// globals by VID — as aa.Constructor requires.

// StepMemo is the step tree of one compile session, shared by its
// concurrent compilations. Edges, final bodies and lowerings are
// published under mu and immutable afterwards.
type StepMemo struct {
	home *ir.Module // pristine module; live copies and final bodies belong to it

	mu    sync.Mutex
	roots []*stepNode // per function index: the pristine body
}

// stepNode is one function state: the body after a fixed history.
// final and lowered are set on leaves once some compilation finished
// there and lowered the body; verified once final passed ir.Verify.
type stepNode struct {
	edges    []*stepEdge
	final    *ir.Func
	lowered  *codegen.Lowered
	verified bool
}

// stepEdge is one recorded step: the transcript it got, its
// statistics delta and changed flag, and the state it led to.
type stepEdge struct {
	tr      oraql.Transcript
	stats   []Entry
	changed bool
	child   *stepNode
}

// testHookPublish, when non-nil, sees every transcript as it is
// published; the fallback test corrupts one through it.
var testHookPublish func(oraql.Transcript)

// NewStepMemo returns an empty memo for compilations of shells of
// pristine, which must stay unmodified while the memo is in use.
func NewStepMemo(pristine *ir.Module) *StepMemo {
	sm := &StepMemo{home: pristine, roots: make([]*stepNode, len(pristine.Funcs))}
	for i := range sm.roots {
		sm.roots[i] = &stepNode{}
	}
	return sm
}

// edgesOf snapshots n's edges; published edges never change.
func (sm *StepMemo) edgesOf(n *stepNode) []*stepEdge {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return n.edges
}

// finalOf returns n's stored final body, or nil.
func (sm *StepMemo) finalOf(n *stepNode) *ir.Func {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return n.final
}

// publish adds a live step from n and returns the state it led to. A
// concurrent compilation may have published the same step first; its
// edge is reused so the tree never holds two copies of one history.
func (sm *StepMemo) publish(n *stepNode, tr oraql.Transcript, stats []Entry, changed bool) *stepNode {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, e := range n.edges {
		if sameTranscript(e.tr, tr) {
			return e.child
		}
	}
	if testHookPublish != nil {
		testHookPublish(tr)
	}
	e := &stepEdge{tr: tr, stats: stats, changed: changed, child: &stepNode{}}
	n.edges = append(n.edges, e)
	return e.child
}

// keepFinal stores fn's body as n's final body unless n has one. The
// body is frozen from then on.
func (sm *StepMemo) keepFinal(n *stepNode, fn *ir.Func) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if n.final == nil {
		n.final = fn
	}
}

func sameTranscript(a, b oraql.Transcript) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Answer != b[i].Answer {
			return false
		}
	}
	return true
}

// StepPlan is one compilation's walk through a StepMemo. Install it as
// Context.Steps with the compilation's ORAQL responder; Pipeline.Run
// consults it at every (pass, function) step.
type StepPlan struct {
	memo *StepMemo
	oq   *oraql.Pass
	at   []*stepNode   // per function: current state
	path [][]*stepEdge // per function: steps replayed since pristine
	live []bool        // per function: the body is current; run every step
	bad  bool
}

// Plan starts a compilation of a shell of the memo's pristine module —
// a module whose function slots point at the pristine bodies — whose
// responder is oq. The plan copies a body into its slot before any
// step runs on it.
func (sm *StepMemo) Plan(oq *oraql.Pass) *StepPlan {
	return &StepPlan{
		memo: sm,
		oq:   oq,
		at:   append([]*stepNode(nil), sm.roots...),
		path: make([][]*stepEdge, len(sm.roots)),
		live: make([]bool, len(sm.roots)),
	}
}

// Failed reports whether a re-executed step asked a different query
// than its transcript; the compilation's result must then be discarded.
func (sp *StepPlan) Failed() bool { return sp.bad }

// replay serves step (pi, fi) from the memo when a recorded transcript
// fits and reports whether it did. Otherwise it prepares the live run:
// it gives the function a body of its own, brought up to date by
// re-executing its replayed steps on a copy of the pristine body (a
// transcript mismatch sets Failed), and starts recording the step's
// transcript.
func (sp *StepPlan) replay(ctx *Context, p *Pipeline, pi, fi int) bool {
	if sp.live[fi] {
		sp.oq.BeginStep()
		return false
	}
	for _, e := range sp.memo.edgesOf(sp.at[fi]) {
		if !sp.oq.Fits(e.tr) {
			continue
		}
		sp.oq.Replay(e.tr)
		for _, s := range e.stats {
			ctx.Stats.Add(s.Pass, s.Stat, s.Value)
		}
		if ctx.Timing != nil {
			ctx.Timing.Record(p.Passes[pi].Name(), 0, e.changed)
		}
		sp.at[fi] = e.child
		sp.path[fi] = append(sp.path[fi], e)
		ctx.StepsReplayed++
		return true
	}
	sp.bad = !sp.reexecute(ctx, p, fi)
	sp.live[fi] = true
	sp.path[fi] = nil
	sp.oq.BeginStep()
	return false
}

// reexecute replaces function fi's slot, which still points at the
// pristine body, with a copy the compilation may write, and runs the
// function's replayed steps on it, answering every query from the
// steps' transcripts. The copy belongs to the pristine module, so a
// body frozen as a final one keeps no test module alive. The steps'
// accounting was replayed already, so it goes to a throwaway registry.
// It reports whether every step asked exactly its recorded queries.
func (sp *StepPlan) reexecute(ctx *Context, p *Pipeline, fi int) bool {
	fn := ctx.Module.Funcs[fi].CloneInto(sp.memo.home)
	ctx.Module.Funcs[fi] = fn
	shared := ctx.Stats
	ctx.Stats = NewStats()
	defer func() { ctx.Stats = shared }()
	for pi, e := range sp.path[fi] {
		sp.oq.Script(e.tr)
		ctx.runStep(p.Passes[pi], fn)
		if !sp.oq.EndScript() {
			return false
		}
	}
	return true
}

// endLive publishes the live step just run on function fi.
func (sp *StepPlan) endLive(fi int, stats *StatsRegistry, changed bool) {
	sp.at[fi] = sp.memo.publish(sp.at[fi], sp.oq.EndStep(), stats.Ordered(), changed)
}

// finish completes the compilation's module after the last step:
// functions replayed to the end take the stored final body by pointer,
// and live functions offer theirs to the memo as they are; neither is
// copied. Only a function whose final node has no stored body yet —
// the compilation that reached it is still running, or stopped early —
// is rebuilt by re-execution, as at a first live step. No body of the
// module may be written afterwards.
func (sp *StepPlan) finish(ctx *Context, p *Pipeline) {
	m := ctx.Module
	for fi, fn := range m.Funcs {
		if len(fn.Blocks) == 0 {
			continue
		}
		if !sp.live[fi] {
			if body := sp.memo.finalOf(sp.at[fi]); body != nil {
				m.Funcs[fi] = body
				continue
			}
			if !sp.reexecute(ctx, p, fi) {
				sp.bad = true
				return
			}
			fn = m.Funcs[fi]
		}
		sp.memo.keepFinal(sp.at[fi], fn)
	}
}

// Verified reports whether fn, function fi's body after the pipeline,
// is the body stored on its final node and passed ir.Verify in an
// earlier compilation of the session. The check need not run again:
// the body is frozen, and it reads only the function names and
// globals of its module, which every shell of the pristine module
// shares (ir.VerifyExcept).
func (sp *StepPlan) Verified(fi int, fn *ir.Func) bool {
	n := sp.at[fi]
	sp.memo.mu.Lock()
	defer sp.memo.mu.Unlock()
	return n.verified && n.final == fn
}

// MarkVerified records that the final bodies of m, the compilation's
// module, passed ir.Verify. Call it after the pipeline ran, on a plan
// that did not fail.
func (sp *StepPlan) MarkVerified(m *ir.Module) {
	sp.memo.mu.Lock()
	defer sp.memo.mu.Unlock()
	for fi, fn := range m.Funcs {
		if n := sp.at[fi]; n.final == fn {
			n.verified = true
		}
	}
}

// Lowered returns the lowering of function fi's final body: the one
// stored on the function's final node, or else lower's result, which
// is stored there. Call it after the pipeline ran, on a plan that did
// not fail.
func (sp *StepPlan) Lowered(fi int, lower func() *codegen.Lowered) *codegen.Lowered {
	n := sp.at[fi]
	sm := sp.memo
	sm.mu.Lock()
	lo := n.lowered
	sm.mu.Unlock()
	if lo != nil {
		return lo
	}
	lo = lower()
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if n.lowered == nil {
		n.lowered = lo
	}
	return n.lowered
}
