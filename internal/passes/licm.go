package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// LICM is loop-invariant code motion: pure computations with
// loop-invariant operands move to the preheader, and — the part alias
// analysis gates — loads from loop-invariant addresses are hoisted when
// no instruction in the loop may write the loaded location. The
// "# loads hoisted or sunk" statistic is the one the paper tracks
// across benchmarks in Fig. 6.
type LICM struct{}

// Name implements Pass.
func (*LICM) Name() string { return "Loop Invariant Code Motion" }

// Run implements Pass.
func (p *LICM) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	info := ctx.CFG(fn)
	loops := info.Loops()
	if len(loops) == 0 {
		return analysis.All
	}
	// Innermost loops first so hoisted code can cascade outwards.
	ordered := append([]*cfg.Loop(nil), loops...)
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].Depth > ordered[i].Depth {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	changed := false
	for _, l := range ordered {
		if l.Preheader == nil {
			continue
		}
		if p.runOnLoop(fn, ctx, info, l) {
			changed = true
		}
	}
	if !changed {
		return analysis.All
	}
	fn.Compact()
	return analysis.CFGOnly // moves instructions between existing blocks
}

func (p *LICM) runOnLoop(fn *ir.Func, ctx *Context, info *cfg.Info, l *cfg.Loop) bool {
	invariant := func(v ir.Value) bool {
		in, ok := v.(*ir.Instr)
		if !ok {
			return true
		}
		return !l.Contains(in.Parent)
	}
	allInvariant := func(in *ir.Instr) bool {
		for _, op := range in.Operands {
			if !invariant(op) {
				return false
			}
		}
		return true
	}
	// guaranteedToExecute: the block runs whenever the loop is entered,
	// i.e. it dominates every exiting block of the loop (no exit can be
	// taken before reaching it).
	guaranteedToExecute := func(b *ir.Block) bool {
		for _, lb := range l.Blocks {
			for _, s := range lb.Succs() {
				if !l.Contains(s) && !info.Dominates(b, lb) {
					return false
				}
			}
		}
		return true
	}
	q := ctx.Query(fn)
	mayClobberInLoop := func(loc aa.MemLoc) bool {
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				if !in.Dead() && ctx.AA.InstrMayClobberLoc(in, loc, q) {
					return true
				}
			}
		}
		return false
	}

	changed := false
	for again := true; again; {
		again = false
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() || !allInvariant(in) {
					continue
				}
				switch {
				case isPureOp(in) && !hasConstantOperandsOnly(in):
					// Pure op on invariant operands: hoistable, except
					// that division must not introduce a trap on a
					// path that never executed it.
					if (in.Op == ir.OpSDiv || in.Op == ir.OpSRem) && !guaranteedToExecute(b) {
						if _, isC := in.Operands[1].(*ir.Const); !isC {
							continue
						}
					}
					moveToPreheader(in, l.Preheader)
					again, changed = true, true
					ctx.Stats.Add(p.Name(), "# instructions hoisted", 1)
				case in.Op == ir.OpLoad:
					// A load hoists when the loop cannot write its
					// location and hoisting cannot introduce a trap:
					// either the load was guaranteed to execute, or
					// the address is provably dereferenceable.
					if !guaranteedToExecute(b) && !derefPointer(in) {
						continue
					}
					if mayClobberInLoop(aa.LocOfLoad(in)) {
						continue
					}
					moveToPreheader(in, l.Preheader)
					again, changed = true, true
					ctx.Stats.Add(p.Name(), "# loads hoisted or sunk", 1)
				case in.Op == ir.OpStore:
					// Store sinking: a store of a loop-invariant value
					// to a loop-invariant address moves to the single
					// exit when nothing in the loop may read or
					// re-write the location and the store executes on
					// every path through the loop.
					if len(l.Exits) != 1 || !guaranteedToExecute(b) {
						continue
					}
					loc := aa.LocOfStore(in)
					if mayTouchInLoopBesides(ctx, q, l, loc, in) {
						continue
					}
					// The exit block must be dominated by the loop
					// (single exit of this loop only).
					if len(info.Preds(l.Exits[0])) != 1 {
						continue
					}
					moveToBlockFront(in, l.Exits[0])
					again, changed = true, true
					ctx.Stats.Add(p.Name(), "# loads hoisted or sunk", 1)
					ctx.Stats.Add(p.Name(), "# stores sunk", 1)
				}
			}
		}
	}
	return changed
}

// mayTouchInLoopBesides reports whether any instruction in the loop
// other than the candidate store may read or write the location.
func mayTouchInLoopBesides(ctx *Context, q *aa.QueryCtx, l *cfg.Loop, loc aa.MemLoc, except *ir.Instr) bool {
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() || in == except {
				continue
			}
			if ctx.AA.InstrMayClobberLoc(in, loc, q) || ctx.AA.InstrMayReadLoc(in, loc, q) {
				return true
			}
		}
	}
	return false
}

// moveToBlockFront removes in from its block and inserts it after the
// leading phis of target.
func moveToBlockFront(in *ir.Instr, target *ir.Block) {
	b := in.Parent
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			break
		}
	}
	at := 0
	for at < len(target.Instrs) && target.Instrs[at].Op == ir.OpPhi {
		at++
	}
	target.Instrs = append(target.Instrs[:at], append([]*ir.Instr{in}, target.Instrs[at:]...)...)
	in.Parent = target
}

// derefPointer reports whether the load address is provably
// dereferenceable (a constant offset into an alloca or global of known
// size), so hoisting it cannot introduce a trap.
func derefPointer(load *ir.Instr) bool {
	ptr := load.Operands[0]
	var off int64
	for depth := 0; depth < 64; depth++ {
		in, ok := ptr.(*ir.Instr)
		if !ok {
			break
		}
		if in.Op == ir.OpAlloca {
			return off >= 0 && off+load.Ty.Size() <= in.Size
		}
		if in.Op != ir.OpGEP {
			return false
		}
		off += in.Off
		if len(in.Operands) > 1 {
			c, isC := in.Operands[1].(*ir.Const)
			if !isC {
				return false
			}
			off += c.I * in.Scale
		}
		ptr = in.Operands[0]
	}
	if g, ok := ptr.(*ir.Global); ok {
		return off >= 0 && off+load.Ty.Size() <= g.Size
	}
	return false
}

// hasConstantOperandsOnly avoids endlessly hoisting constant
// expressions InstSimplify will fold anyway.
func hasConstantOperandsOnly(in *ir.Instr) bool {
	if len(in.Operands) == 0 {
		return true
	}
	for _, op := range in.Operands {
		if _, ok := op.(*ir.Const); !ok {
			return false
		}
	}
	return true
}

// moveToPreheader removes in from its block and inserts it before the
// preheader's terminator.
func moveToPreheader(in *ir.Instr, ph *ir.Block) {
	b := in.Parent
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			break
		}
	}
	// Insert before the terminator.
	ti := len(ph.Instrs) - 1
	for ti >= 0 && (ph.Instrs[ti].Dead() || !ph.Instrs[ti].IsTerminator()) {
		ti--
	}
	if ti < 0 {
		ti = len(ph.Instrs)
	}
	ph.Instrs = append(ph.Instrs[:ti], append([]*ir.Instr{in}, ph.Instrs[ti:]...)...)
	in.Parent = ph
}
