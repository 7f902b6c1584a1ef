package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// LoopVectorize vectorizes canonical innermost counted loops with a
// vector factor of 4: consecutive loads/stores become vector memory
// ops, scalar arithmetic becomes vector arithmetic, and a scalar
// epilogue loop handles the remainder. Legality hinges on alias
// queries — every store must be disjoint from every other memory
// access in the body — which is exactly where optimistic ORAQL answers
// unlock the "# vectorized loops" gains of Fig. 6 (MiniGMG +33%).
//
// Floating-point reductions are rejected (vectorizing them reorders
// rounding, which default FP semantics forbid); integer add reductions
// are vectorized.
type LoopVectorize struct{}

// Name implements Pass.
func (*LoopVectorize) Name() string { return "Loop Vectorizer" }

// Width is the vectorization factor.
const vecWidth = 4

// Run implements Pass.
func (p *LoopVectorize) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	// Headers of loops already vectorized (the remainder loop reuses
	// the original header) must not be vectorized again.
	skip := map[*ir.Block]bool{}
	for {
		info := ctx.CFG(fn)
		var done bool
		for _, l := range info.Loops() {
			if skip[l.Header] || !isInnermost(l, info) {
				continue
			}
			plan := analyzeLoop(fn, ctx, l)
			if plan == nil {
				continue
			}
			skip[plan.header] = true
			vectorizeLoop(fn, plan)
			ctx.Stats.Add(p.Name(), "# vectorized loops", 1)
			ctx.Stats.Add(p.Name(), "# vector instructions generated", int64(plan.vectorInstrs))
			changed = true
			done = true
			ctx.InvalidateAll(fn)
			break // CFG changed; re-analyse
		}
		if !done {
			if !changed {
				return analysis.All
			}
			return analysis.None // inserted vector and remainder loops
		}
	}
}

func isInnermost(l *cfg.Loop, info *cfg.Info) bool {
	for _, other := range info.Loops() {
		if other.Parent == l {
			return false
		}
	}
	return true
}

// vecPlan captures the legality analysis of one loop.
type vecPlan struct {
	header, body *ir.Block
	indPhi       *ir.Instr // induction phi, step 1
	indInit      ir.Value
	indStep      *ir.Instr // the add i,1
	bound        ir.Value  // loop-invariant n in  i < n
	cmp          *ir.Instr
	exit         *ir.Block
	preheader    *ir.Block

	// reductions: integer add chains.
	reductions []*reduction

	// address classification per memory op.
	addr map[*ir.Instr]addrClass

	vectorInstrs int
}

type reduction struct {
	phi  *ir.Instr // header phi
	init ir.Value  // preheader incoming
	add  *ir.Instr // body add(phi, x) or add(x, phi)
}

type addrKind int

const (
	addrConsecutive addrKind = iota // base + indPhi*elem + constOff
	addrInvariant
)

type addrClass struct {
	kind addrKind
	base ir.Value
	off  int64
}

// analyzeLoop returns a plan, or nil if the loop cannot be vectorized.
func analyzeLoop(fn *ir.Func, ctx *Context, l *cfg.Loop) *vecPlan {
	if len(l.Blocks) != 2 || l.Preheader == nil || len(l.Latches) != 1 || len(l.Exits) != 1 {
		return nil
	}
	header := l.Header
	body := l.Latches[0]
	if body == header || l.Blocks[0] != header && l.Blocks[1] != header {
		return nil
	}
	// Header: phis, then one icmp, then the conditional branch.
	term := header.Term()
	if term == nil || len(term.Succs) != 2 || term.Succs[0] != body || l.Contains(term.Succs[1]) {
		return nil
	}
	cmp, ok := term.Operands[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp || cmp.Pred != ir.PredLT || cmp.Parent != header {
		return nil
	}
	plan := &vecPlan{
		header: header, body: body, cmp: cmp,
		exit: term.Succs[1], preheader: l.Preheader,
		addr: map[*ir.Instr]addrClass{},
	}
	invariant := func(v ir.Value) bool {
		in, isIn := v.(*ir.Instr)
		return !isIn || !l.Contains(in.Parent)
	}
	// Header may contain only phis + cmp + br.
	for _, in := range header.Instrs {
		if in.Dead() {
			continue
		}
		switch {
		case in.Op == ir.OpPhi:
		case in == cmp, in == term:
		default:
			return nil
		}
	}
	// Classify phis: one induction + integer add reductions.
	for _, in := range header.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		if len(in.Operands) != 2 {
			return nil
		}
		var init, next ir.Value
		for i, from := range in.Incoming {
			if from == l.Preheader {
				init = in.Operands[i]
			} else if from == body {
				next = in.Operands[i]
			} else {
				return nil
			}
		}
		if init == nil || next == nil {
			return nil
		}
		ni, isIn := next.(*ir.Instr)
		if !isIn || ni.Op != ir.OpAdd || ni.Parent != body {
			return nil
		}
		// Induction: add(phi, 1).
		if in.Ty == ir.I64 && isStepOne(ni, in) && cmp.Operands[0] == ir.Value(in) {
			if plan.indPhi != nil {
				return nil
			}
			plan.indPhi, plan.indInit, plan.indStep = in, init, ni
			continue
		}
		// Integer add reduction: add(phi, x) with the phi used only by
		// the add (and outside the loop).
		if in.Ty == ir.I64 && (ni.Operands[0] == ir.Value(in) || ni.Operands[1] == ir.Value(in)) {
			if phiOnlyUsedBy(fn, l, in, ni) && addOnlyUsedBy(fn, l, ni, in) {
				plan.reductions = append(plan.reductions, &reduction{phi: in, init: init, add: ni})
				continue
			}
		}
		return nil
	}
	if plan.indPhi == nil || !invariant(cmp.Operands[1]) {
		return nil
	}
	plan.bound = cmp.Operands[1]

	// Body: straight-line vectorizable instructions.
	reductionAdds := map[*ir.Instr]bool{}
	for _, r := range plan.reductions {
		reductionAdds[r.add] = true
	}
	var loads, stores []*ir.Instr
	count := 0
	for _, in := range body.Instrs {
		if in.Dead() {
			continue
		}
		count++
		if count > 80 {
			return nil // cost model: body too large
		}
		switch in.Op {
		case ir.OpBr:
			if len(in.Succs) != 1 || in.Succs[0] != header {
				return nil
			}
		case ir.OpGEP:
			ac, ok := classifyAddr(in, plan, invariant)
			if !ok {
				return nil
			}
			plan.addr[in] = ac
		case ir.OpLoad:
			if in.Ty == ir.Ptr || in.Ty.Kind == ir.KVec {
				return nil
			}
			if !addrOK(in.Operands[0], plan, invariant) {
				return nil
			}
			loads = append(loads, in)
		case ir.OpStore:
			vt := in.Operands[0].Type()
			if vt != ir.F64 && vt != ir.I64 {
				return nil
			}
			// Stores must be consecutive (invariant stores carry a
			// loop-carried output dependence).
			ac, ok := lookupAddr(in.Operands[1], plan, invariant)
			if !ok || ac.kind != addrConsecutive {
				return nil
			}
			stores = append(stores, in)
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
			ir.OpSIToFP, ir.OpFPToSI:
			if reductionAdds[in] || in == plan.indStep {
				continue
			}
		default:
			return nil
		}
	}

	// Legality: every store disjoint from every other access, unless
	// they compute the same address expression (distance-0 dependence).
	q := ctx.Query(fn)
	for _, s := range stores {
		sLoc := aa.LocOfStore(s)
		for _, other := range append(append([]*ir.Instr{}, loads...), stores...) {
			if other == s {
				continue
			}
			var oLoc aa.MemLoc
			if other.Op == ir.OpLoad {
				oLoc = aa.LocOfLoad(other)
			} else {
				oLoc = aa.LocOfStore(other)
			}
			if sameSymbolicAddr(s.Operands[1], other.Operands[len(other.Operands)-1], plan) {
				continue
			}
			if ctx.AA.Alias(sLoc, oLoc, q) != aa.NoAlias {
				return nil
			}
		}
	}
	return plan
}

func isStepOne(add *ir.Instr, phi *ir.Instr) bool {
	if add.Operands[0] == ir.Value(phi) {
		c, ok := constOf(add.Operands[1])
		return ok && c == 1
	}
	if add.Operands[1] == ir.Value(phi) {
		c, ok := constOf(add.Operands[0])
		return ok && c == 1
	}
	return false
}

func phiOnlyUsedBy(fn *ir.Func, l *cfg.Loop, phi, add *ir.Instr) bool {
	for _, b := range fn.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dead() || in == add {
				continue
			}
			for _, op := range in.Operands {
				if op == ir.Value(phi) {
					return false
				}
			}
		}
	}
	return true
}

func addOnlyUsedBy(fn *ir.Func, l *cfg.Loop, add, phi *ir.Instr) bool {
	for _, b := range fn.Blocks {
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Dead() || in == phi {
				continue
			}
			for _, op := range in.Operands {
				if op == ir.Value(add) {
					return false
				}
			}
		}
	}
	return true
}

func classifyAddr(gep *ir.Instr, plan *vecPlan, invariant func(ir.Value) bool) (addrClass, bool) {
	// Consecutive: gep(base, indPhi, elemSize, off) with invariant base.
	if len(gep.Operands) == 2 && gep.Operands[1] == ir.Value(plan.indPhi) &&
		gep.Scale == 8 && invariant(gep.Operands[0]) {
		return addrClass{kind: addrConsecutive, base: gep.Operands[0], off: gep.Off}, true
	}
	// Invariant address.
	all := true
	for _, op := range gep.Operands {
		if !invariant(op) {
			all = false
			break
		}
	}
	if all {
		return addrClass{kind: addrInvariant, base: gep.Operands[0], off: gep.Off}, true
	}
	return addrClass{}, false
}

func lookupAddr(ptr ir.Value, plan *vecPlan, invariant func(ir.Value) bool) (addrClass, bool) {
	if in, ok := ptr.(*ir.Instr); ok {
		if ac, ok2 := plan.addr[in]; ok2 {
			return ac, true
		}
		if in.Op == ir.OpGEP {
			return classifyAddr(in, plan, invariant)
		}
	}
	if invariant(ptr) {
		return addrClass{kind: addrInvariant, base: ptr}, true
	}
	return addrClass{}, false
}

func addrOK(ptr ir.Value, plan *vecPlan, invariant func(ir.Value) bool) bool {
	_, ok := lookupAddr(ptr, plan, invariant)
	return ok
}

// sameSymbolicAddr reports whether two pointers are the same value or
// the same (base, index, scale, offset) consecutive expression.
func sameSymbolicAddr(a, b ir.Value, plan *vecPlan) bool {
	if a == b {
		return true
	}
	ai, ok1 := a.(*ir.Instr)
	bi, ok2 := b.(*ir.Instr)
	if !ok1 || !ok2 {
		return false
	}
	ca, in1 := plan.addr[ai]
	cb, in2 := plan.addr[bi]
	return in1 && in2 && ca.kind == addrConsecutive && cb.kind == addrConsecutive &&
		ca.base == cb.base && ca.off == cb.off
}
