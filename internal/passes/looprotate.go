package passes

import (
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// LoopRotate converts canonical top-tested loops into guarded
// bottom-tested form:
//
//	   preheader                    preheader: guard-cmp
//	       |                          /     \
//	   header: phis,cmp      ->   new.ph    exit(phis)
//	   /       \                    |         ^
//	body ... latch -> header      header'(phis) ... latch: cmp'
//
// After rotation the loop body is guaranteed to execute once the loop
// is entered, which is what unlocks LICM's load hoisting and store
// sinking — LLVM runs loop-rotate before LICM for exactly this reason,
// and the paper's LICM deltas depend on it.
type LoopRotate struct{}

// Name implements Pass.
func (*LoopRotate) Name() string { return "Loop Rotation" }

// Run implements Pass.
func (p *LoopRotate) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	for {
		info := ctx.CFG(fn)
		rotated := false
		for _, l := range info.Loops() {
			if p.rotate(fn, ctx, info, l) {
				rotated = true
				changed = true
				ctx.InvalidateAll(fn)
				break // CFG changed; re-analyse
			}
		}
		if !rotated {
			if !changed {
				return analysis.All
			}
			return analysis.None // restructured loop headers
		}
	}
}

// rotate transforms one loop if it matches the canonical shape.
func (p *LoopRotate) rotate(fn *ir.Func, ctx *Context, info *cfg.Info, l *cfg.Loop) bool {
	h := l.Header
	if l.Preheader == nil || len(l.Latches) != 1 || len(l.Exits) != 1 {
		return false
	}
	latch := l.Latches[0]
	exit := l.Exits[0]
	// Header must be exactly [phis..., cmp, condbr(body, exit)] with
	// the cmp used only by the branch.
	term := h.Term()
	if term == nil || len(term.Succs) != 2 {
		return false
	}
	var body *ir.Block
	exitIdx := -1
	if term.Succs[1] == exit && l.Contains(term.Succs[0]) {
		body, exitIdx = term.Succs[0], 1
	} else if term.Succs[0] == exit && l.Contains(term.Succs[1]) {
		body, exitIdx = term.Succs[1], 0
	} else {
		return false
	}
	if body == h || len(info.Preds(body)) != 1 || len(info.Preds(exit)) != 1 {
		return false
	}
	// A pre-existing phi in the exit block would need a three-way
	// merge; bail (does not occur for frontend-shaped loops).
	for _, in := range exit.Instrs {
		if !in.Dead() && in.Op == ir.OpPhi {
			return false
		}
	}
	// The latch must jump unconditionally to the header.
	lt := latch.Term()
	if lt == nil || lt.Op != ir.OpBr || len(lt.Succs) != 1 || lt.Succs[0] != h {
		return false
	}
	var phis []*ir.Instr
	var cmp *ir.Instr
	for _, in := range h.Instrs {
		if in.Dead() {
			continue
		}
		switch {
		case in.Op == ir.OpPhi:
			if cmp != nil {
				return false // phi after cmp: non-canonical
			}
			if len(in.Operands) != 2 {
				return false
			}
			phis = append(phis, in)
		case in == term:
		case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
			if cmp != nil {
				return false
			}
			cmp = in
		default:
			return false
		}
	}
	if cmp == nil || term.Operands[0] != ir.Value(cmp) || usedOutside(fn, cmp, term) {
		return false
	}
	// Phi incoming values, split by edge.
	init := map[*ir.Instr]ir.Value{}
	next := map[*ir.Instr]ir.Value{}
	for _, phi := range phis {
		for i, from := range phi.Incoming {
			switch from {
			case l.Preheader:
				init[phi] = phi.Operands[i]
			case latch:
				next[phi] = phi.Operands[i]
			default:
				return false
			}
		}
		if init[phi] == nil || next[phi] == nil {
			return false
		}
	}

	// Clone the comparison twice: guard (initial values) in the
	// preheader, bottom test (next values) in the latch.
	cloneCmp := func(subst map[*ir.Instr]ir.Value, name string) *ir.Instr {
		c := &ir.Instr{Op: cmp.Op, Ty: ir.I1, Pred: cmp.Pred, Name: name, Loc: cmp.Loc}
		for _, op := range cmp.Operands {
			if phi, ok := op.(*ir.Instr); ok {
				if v, isPhi := subst[phi]; isPhi {
					c.Operands = append(c.Operands, v)
					continue
				}
			}
			c.Operands = append(c.Operands, op)
		}
		return c
	}

	// New preheader between the guard and the loop body.
	newPH := fn.NewBlock("rot.ph")
	nb := ir.NewBuilder(newPH)
	nb.Br(body)

	// Guard in the old preheader.
	phTerm := l.Preheader.Term()
	guard := cloneCmp(init, "rot.guard")
	insertBefore(l.Preheader, phTerm, guard, fn)
	phTerm.Operands = []ir.Value{guard}
	if exitIdx == 1 {
		phTerm.Succs = []*ir.Block{newPH, exit}
	} else {
		phTerm.Succs = []*ir.Block{exit, newPH}
	}

	// Bottom test in the latch.
	bottom := cloneCmp(next, "rot.cmp")
	insertBefore(latch, lt, bottom, fn)
	lt.Operands = []ir.Value{bottom}
	if exitIdx == 1 {
		lt.Succs = []*ir.Block{body, exit}
	} else {
		lt.Succs = []*ir.Block{exit, body}
	}

	// Move the phis to the body head, rewiring incoming edges.
	for i := len(phis) - 1; i >= 0; i-- {
		phi := phis[i]
		removeFromBlock(phi, h)
		phi.Parent = body
		body.Instrs = append([]*ir.Instr{phi}, body.Instrs...)
		phi.Incoming = []*ir.Block{newPH, latch}
		phi.Operands = []ir.Value{init[phi], next[phi]}
	}

	// Exit phis merge the value observed by the failing test.
	loopBlocks := map[*ir.Block]bool{}
	for _, b := range l.Blocks {
		loopBlocks[b] = true
	}
	loopBlocks[newPH] = true
	for _, phi := range phis {
		exitPhi := &ir.Instr{Op: ir.OpPhi, Ty: phi.Ty, Name: phi.Name + ".lcssa",
			Operands: []ir.Value{init[phi], next[phi]},
			Incoming: []*ir.Block{l.Preheader, latch},
		}
		exitPhi.ID = fn.AllocID()
		exitPhi.Parent = exit
		// Replace uses of phi outside the loop.
		replaced := false
		for _, b := range fn.Blocks {
			if loopBlocks[b] || b == exit {
				continue
			}
			for _, in := range b.Instrs {
				for oi, op := range in.Operands {
					if op == ir.Value(phi) {
						in.Operands[oi] = exitPhi
						replaced = true
					}
				}
			}
		}
		// Uses in the exit block itself.
		for _, in := range exit.Instrs {
			if in == exitPhi {
				continue
			}
			for oi, op := range in.Operands {
				if op == ir.Value(phi) {
					in.Operands[oi] = exitPhi
					replaced = true
				}
			}
		}
		if replaced {
			exit.Instrs = append([]*ir.Instr{exitPhi}, exit.Instrs...)
		}
	}

	// The old header is now empty of phis; it still holds cmp and the
	// branch, both replaced — drop the block entirely by forwarding
	// nothing to it (it becomes unreachable).
	cmp.MarkDead()
	term.MarkDead()
	h.Compact()
	for i, b := range fn.Blocks {
		if b == h {
			fn.Blocks = append(fn.Blocks[:i], fn.Blocks[i+1:]...)
			break
		}
	}
	ctx.Stats.Add(p.Name(), "# loops rotated", 1)
	return true
}

func usedOutside(fn *ir.Func, def *ir.Instr, except *ir.Instr) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() || in == except {
				continue
			}
			for _, op := range in.Operands {
				if op == ir.Value(def) {
					return true
				}
			}
		}
	}
	return false
}

func removeFromBlock(in *ir.Instr, b *ir.Block) {
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
}
