package passes

import (
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// InstSimplify folds constants and applies algebraic identities. It
// issues no alias queries; its job is to canonicalize the IR so the
// AA-driven passes see clean expressions.
type InstSimplify struct{}

// Name implements Pass.
func (*InstSimplify) Name() string { return "instsimplify" }

// Run implements Pass.
func (p *InstSimplify) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	for {
		round := false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				if canonGEP(in) {
					round = true
					continue
				}
				if v := simplify(in); v != nil {
					fn.ReplaceAllUses(in, v)
					in.MarkDead()
					round = true
					ctx.Stats.Add(p.Name(), "Number of instructions simplified", 1)
				}
			}
		}
		if !round {
			break
		}
		changed = true
	}
	if removeDeadCode(fn) > 0 {
		changed = true
	}
	if !changed {
		return analysis.All
	}
	// Rewrites values (in particular GEP offsets) but never block edges.
	return analysis.CFGOnly
}

// canonGEP folds constant addends of a GEP index into the byte offset:
// gep(base, add(x, c), s, o) becomes gep(base, x, s, o+c*s). The
// canonical form lets BasicAA separate a[i] from a[i+1] and lets the
// loop vectorizer recognize stencil accesses as consecutive.
func canonGEP(in *ir.Instr) bool {
	if in.Op != ir.OpGEP || len(in.Operands) != 2 {
		return false
	}
	idx, ok := in.Operands[1].(*ir.Instr)
	if !ok || (idx.Op != ir.OpAdd && idx.Op != ir.OpSub) {
		return false
	}
	if c, isC := constOf(idx.Operands[1]); isC {
		if idx.Op == ir.OpAdd {
			in.Off += c * in.Scale
		} else {
			in.Off -= c * in.Scale
		}
		in.Operands[1] = idx.Operands[0]
		return true
	}
	if c, isC := constOf(idx.Operands[0]); isC && idx.Op == ir.OpAdd {
		in.Off += c * in.Scale
		in.Operands[1] = idx.Operands[1]
		return true
	}
	return false
}

// simplify returns a replacement value for in, or nil.
func simplify(in *ir.Instr) ir.Value {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr:
		return simplifyIntBin(in)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return simplifyFloatBin(in)
	case ir.OpICmp:
		return simplifyICmp(in)
	case ir.OpSelect:
		if c, ok := constOf(in.Operands[0]); ok {
			if c != 0 {
				return in.Operands[1]
			}
			return in.Operands[2]
		}
		if in.Operands[1] == in.Operands[2] {
			return in.Operands[1]
		}
	case ir.OpSIToFP:
		if c, ok := constOf(in.Operands[0]); ok {
			return ir.ConstFloat(float64(c))
		}
	case ir.OpFPToSI:
		if c, ok := fconstOf(in.Operands[0]); ok {
			return ir.ConstInt(int64(c))
		}
	case ir.OpGEP:
		// gep base + 0 with no index folds to base.
		if len(in.Operands) == 1 && in.Off == 0 {
			return in.Operands[0]
		}
		if len(in.Operands) == 2 {
			if c, ok := constOf(in.Operands[1]); ok && c == 0 && in.Off == 0 {
				return in.Operands[0]
			}
		}
	case ir.OpPhi:
		// A phi whose incoming values all agree folds to that value.
		if len(in.Operands) > 0 {
			first := in.Operands[0]
			same := true
			for _, v := range in.Operands[1:] {
				if v != first && v != ir.Value(in) {
					same = false
					break
				}
			}
			if same && first != ir.Value(in) {
				return first
			}
		}
	}
	return nil
}

func simplifyIntBin(in *ir.Instr) ir.Value {
	x, y := in.Operands[0], in.Operands[1]
	cx, okx := constOf(x)
	cy, oky := constOf(y)
	if okx && oky {
		if v, ok := foldIntBin(in.Op, cx, cy); ok {
			return ir.ConstInt(v)
		}
		return nil
	}
	switch in.Op {
	case ir.OpAdd:
		if okx && cx == 0 {
			return y
		}
		if oky && cy == 0 {
			return x
		}
	case ir.OpSub:
		if oky && cy == 0 {
			return x
		}
		if x == y {
			return ir.ConstInt(0)
		}
	case ir.OpMul:
		if okx && cx == 1 {
			return y
		}
		if oky && cy == 1 {
			return x
		}
		if okx && cx == 0 || oky && cy == 0 {
			return ir.ConstInt(0)
		}
	case ir.OpSDiv:
		if oky && cy == 1 {
			return x
		}
	case ir.OpAnd:
		if okx && cx == 0 || oky && cy == 0 {
			return ir.ConstInt(0)
		}
	case ir.OpOr, ir.OpXor:
		if okx && cx == 0 {
			return y
		}
		if oky && cy == 0 {
			return x
		}
	case ir.OpShl, ir.OpAShr:
		if oky && cy == 0 {
			return x
		}
	}
	return nil
}

func foldIntBin(op ir.Opcode, x, y int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return x + y, true
	case ir.OpSub:
		return x - y, true
	case ir.OpMul:
		return x * y, true
	case ir.OpSDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case ir.OpSRem:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case ir.OpAnd:
		return x & y, true
	case ir.OpOr:
		return x | y, true
	case ir.OpXor:
		return x ^ y, true
	case ir.OpShl:
		if uint64(y) > 63 {
			return 0, false
		}
		return x << uint(y), true
	case ir.OpAShr:
		if uint64(y) > 63 {
			return 0, false
		}
		return x >> uint(y), true
	}
	return 0, false
}

func simplifyFloatBin(in *ir.Instr) ir.Value {
	if in.Ty.Kind == ir.KVec {
		return nil
	}
	cx, okx := fconstOf(in.Operands[0])
	cy, oky := fconstOf(in.Operands[1])
	if okx && oky {
		switch in.Op {
		case ir.OpFAdd:
			return ir.ConstFloat(cx + cy)
		case ir.OpFSub:
			return ir.ConstFloat(cx - cy)
		case ir.OpFMul:
			return ir.ConstFloat(cx * cy)
		case ir.OpFDiv:
			return ir.ConstFloat(cx / cy)
		}
	}
	// No fast-math identities: x+0.0 is not folded (signed zeros),
	// matching default LLVM semantics.
	return nil
}

func simplifyICmp(in *ir.Instr) ir.Value {
	x, y := in.Operands[0], in.Operands[1]
	if cx, okx := constOf(x); okx {
		if cy, oky := constOf(y); oky {
			var r bool
			switch in.Pred {
			case ir.PredEQ:
				r = cx == cy
			case ir.PredNE:
				r = cx != cy
			case ir.PredLT:
				r = cx < cy
			case ir.PredLE:
				r = cx <= cy
			case ir.PredGT:
				r = cx > cy
			case ir.PredGE:
				r = cx >= cy
			}
			return ir.ConstBool(r)
		}
	}
	if x == y {
		switch in.Pred {
		case ir.PredEQ, ir.PredLE, ir.PredGE:
			return ir.ConstBool(true)
		case ir.PredNE, ir.PredLT, ir.PredGT:
			return ir.ConstBool(false)
		}
	}
	return nil
}
