package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// LoopDeletion removes loops that provably do nothing: no writes to
// memory, no calls with effects, and no values defined inside used
// outside. Such loops typically appear after GVN and DSE strip a
// loop's body — the cascade the paper measures on Quicksilver (2 → 55
// deleted loops under ORAQL). The loop must have a preheader, a single
// exit, and an exit condition controlled by a recognizable induction
// variable, so deletion cannot change termination behaviour.
type LoopDeletion struct{}

// Name implements Pass.
func (*LoopDeletion) Name() string { return "Loop Deletion" }

// Run implements Pass.
func (p *LoopDeletion) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	for {
		info := ctx.CFG(fn)
		deleted := false
		for _, l := range info.Loops() {
			if l.Preheader == nil || len(l.Exits) != 1 {
				continue
			}
			if !loopIsDead(fn, l) || !loopTerminates(l) {
				continue
			}
			// Redirect the preheader straight to the exit.
			exit := l.Exits[0]
			// The exit must not have phis fed from in-loop blocks with
			// values defined in the loop (loopIsDead checked uses, but
			// phi incoming blocks also need rewiring).
			if !rewireExitPhis(l, exit) {
				continue
			}
			ph := l.Preheader.Term()
			ph.Succs = []*ir.Block{exit}
			ph.Operands = nil
			for _, b := range l.Blocks {
				for _, in := range b.Instrs {
					in.MarkDead()
				}
			}
			deleted = true
			changed = true
			ctx.Stats.Add(p.Name(), "# deleted loops", 1)
		}
		if !deleted {
			break
		}
		// Clean up unreachable loop bodies, then drop the stale CFG view
		// before re-analysing.
		(&SimplifyCFG{}).Run(fn, ctx)
		ctx.InvalidateAll(fn)
	}
	if !changed {
		return analysis.All
	}
	return analysis.None // rewired branches and removed blocks
}

// loopIsDead: no stores, no effectful calls, and no inside-defined
// value used outside the loop.
func loopIsDead(fn *ir.Func, l *cfg.Loop) bool {
	inLoop := map[*ir.Instr]bool{}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			switch in.Op {
			case ir.OpStore, ir.OpMemCpy, ir.OpMemSet:
				return false
			case ir.OpCall:
				eff := ir.CalleeEffects(in.Callee)
				if eff.Reads || eff.Writes || !isPureOp(in) {
					return false
				}
			}
			inLoop[in] = true
		}
	}
	for _, b := range fn.Blocks {
		if l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			for _, op := range in.Operands {
				if oi, ok := op.(*ir.Instr); ok && inLoop[oi] {
					return false
				}
			}
		}
	}
	return true
}

// loopTerminates recognizes the canonical counted loop emitted by the
// frontend: a header phi stepped by a constant and compared against a
// loop-invariant bound. Deleting anything else might drop a
// non-terminating loop, which would not be a semantics-preserving
// transformation.
func loopTerminates(l *cfg.Loop) bool {
	for _, b := range l.Blocks {
		t := b.Term()
		if t == nil || len(t.Succs) != 2 {
			continue
		}
		exits := !l.Contains(t.Succs[0]) || !l.Contains(t.Succs[1])
		if !exits {
			continue
		}
		cmp, ok := t.Operands[0].(*ir.Instr)
		if !ok || cmp.Op != ir.OpICmp {
			continue
		}
		if isCountedExit(l, cmp) {
			return true
		}
	}
	return false
}

func isCountedExit(l *cfg.Loop, cmp *ir.Instr) bool {
	for i := 0; i < 2; i++ {
		iv, ok := cmp.Operands[i].(*ir.Instr)
		if !ok {
			continue
		}
		bound := cmp.Operands[1-i]
		if bi, isIn := bound.(*ir.Instr); isIn && l.Contains(bi.Parent) {
			continue // bound varies inside the loop
		}
		if isInductionChain(l, iv) {
			return true
		}
	}
	return false
}

// isInductionChain checks iv is phi(init, iv+c) (possibly through the
// add side).
func isInductionChain(l *cfg.Loop, iv *ir.Instr) bool {
	phi := iv
	if iv.Op == ir.OpAdd {
		if p, ok := iv.Operands[0].(*ir.Instr); ok && p.Op == ir.OpPhi {
			phi = p
		} else if p, ok := iv.Operands[1].(*ir.Instr); ok && p.Op == ir.OpPhi {
			phi = p
		} else {
			return false
		}
	}
	if phi.Op != ir.OpPhi || phi.Parent != l.Header {
		return false
	}
	for i, v := range phi.Operands {
		if !l.Contains(phi.Incoming[i]) {
			continue
		}
		step, ok := v.(*ir.Instr)
		if !ok || step.Op != ir.OpAdd {
			return false
		}
		if step.Operands[0] != ir.Value(phi) && step.Operands[1] != ir.Value(phi) {
			return false
		}
		hasConst := false
		if c, isC := constOf(step.Operands[0]); isC && c != 0 {
			hasConst = true
		}
		if c, isC := constOf(step.Operands[1]); isC && c != 0 {
			hasConst = true
		}
		if !hasConst {
			return false
		}
	}
	return true
}

// rewireExitPhis checks the single exit block's phis only receive
// values from the preheader path after deletion; phis fed by loop
// blocks with loop-defined values block deletion (they were caught by
// loopIsDead), while loop-invariant incoming values are rewritten to
// flow from the preheader.
func rewireExitPhis(l *cfg.Loop, exit *ir.Block) bool {
	for _, in := range exit.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		for i, from := range in.Incoming {
			if l.Contains(from) {
				if vi, ok := in.Operands[i].(*ir.Instr); ok && l.Contains(vi.Parent) {
					return false
				}
				in.Incoming[i] = l.Preheader
			}
		}
	}
	return true
}

// LoopLoadElim forwards values stored earlier in the same loop
// iteration to loads later in that iteration across block boundaries,
// a pattern GVN's cross-block forwarding misses when the store and
// load sit in different loop blocks. Uses the MemorySSA walker.
type LoopLoadElim struct{}

// Name implements Pass.
func (*LoopLoadElim) Name() string { return "Loop Load Elimination" }

// Run implements Pass.
func (p *LoopLoadElim) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	info := ctx.CFG(fn)
	loops := info.Loops()
	if len(loops) == 0 {
		return analysis.All
	}
	walker := ctx.MemSSA(fn)
	q := ctx.Query(fn)
	changed := false
	for _, l := range loops {
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() || in.Op != ir.OpLoad {
					continue
				}
				loc := aa.LocOfLoad(in)
				// Find a store in the same loop that dominates the load
				// and must-alias it, with nothing clobbering in between.
				for _, sb := range l.Blocks {
					if !info.Dominates(sb, b) || sb == b {
						continue
					}
					for _, st := range sb.Instrs {
						if st.Dead() || st.Op != ir.OpStore || st.Operands[0].Type() != in.Ty {
							continue
						}
						sLoc := aa.LocOfStore(st)
						if ctx.AA.Alias(sLoc, loc, q) != aa.MustAlias {
							continue
						}
						if !walker.NoClobberBetween(st, in, loc) {
							continue
						}
						fn.ReplaceAllUses(in, st.Operands[0])
						in.MarkDead()
						changed = true
						ctx.Stats.Add(p.Name(), "# loads eliminated", 1)
						goto nextLoad
					}
				}
			nextLoad:
			}
		}
	}
	if !changed {
		return analysis.All
	}
	fn.Compact()
	removeDeadCode(fn)
	return analysis.CFGOnly // deletes loads, never edges
}
