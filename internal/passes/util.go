package passes

import (
	"math"
	"strconv"

	"github.com/oraql/go-oraql/internal/ir"
)

// isPureOp reports whether the instruction computes a value with no
// side effects and no dependence on memory, so it can be removed when
// unused and hoisted/CSE'd when operands match. Calls to readnone math
// intrinsics count as pure.
func isPureOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpSIToFP, ir.OpFPToSI, ir.OpICmp, ir.OpFCmp,
		ir.OpSelect, ir.OpGEP,
		ir.OpVSplat, ir.OpVExtract, ir.OpVInsert, ir.OpVReduce:
		return true
	case ir.OpCall:
		return pureIntrinsics[in.Callee]
	}
	return false
}

// pureIntrinsics are deterministic, effect-free math functions; every
// other call is treated as having observable effects (I/O, runtime
// state, allocation).
var pureIntrinsics = map[string]bool{
	"__sqrt": true, "__fabs": true, "__exp": true, "__log": true,
	"__sin": true, "__cos": true, "__pow": true,
	"__min_i64": true, "__max_i64": true, "__min_f64": true, "__max_f64": true,
}

// sideEffectFree reports whether deleting the unused instruction is
// safe: pure ops, loads (a dead load has no observable effect), phis
// and allocas.
func sideEffectFree(in *ir.Instr) bool {
	if isPureOp(in) {
		return true
	}
	switch in.Op {
	case ir.OpLoad, ir.OpPhi, ir.OpAlloca:
		return true
	}
	return false
}

// exprKey builds a structural hash key of a pure instruction for CSE
// and value numbering: opcode, predicate, gep constants, callee, and
// operand identities. Non-constant operands are keyed by VID; constants
// by type and full payload, because a constant's VID keeps only the low
// 32 bits of its value (x+1 and x+4294967297 must not merge).
func exprKey(in *ir.Instr) string {
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(in.Op), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(in.Pred), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, in.Scale, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, in.Off, 10)
	b = append(b, '|')
	b = append(b, in.Callee...)
	for _, op := range in.Operands {
		b = append(b, '|')
		c, ok := op.(*ir.Const)
		if !ok {
			b = strconv.AppendInt(b, op.VID(), 10)
			continue
		}
		// The 'c' prefix keeps constant keys disjoint from VIDs.
		b = append(b, 'c')
		b = strconv.AppendInt(b, int64(c.Ty.Kind), 10)
		b = append(b, ':')
		switch {
		case c.Str != "":
			b = strconv.AppendQuote(b, c.Str)
		case c.Ty == ir.F64:
			b = strconv.AppendUint(b, math.Float64bits(c.F), 16)
		default:
			b = strconv.AppendInt(b, c.I, 10)
		}
	}
	return string(b)
}

// constOf returns the constant value of v if it is an integer constant.
func constOf(v ir.Value) (int64, bool) {
	c, ok := v.(*ir.Const)
	if !ok || c.Ty == ir.F64 {
		return 0, false
	}
	return c.I, true
}

// fconstOf returns the constant value of v if it is a float constant.
func fconstOf(v ir.Value) (float64, bool) {
	c, ok := v.(*ir.Const)
	if !ok || c.Ty != ir.F64 {
		return 0, false
	}
	return c.F, true
}

// removeDeadCode deletes unused side-effect-free instructions until a
// fixed point, returning how many were removed. It counts the uses of
// each instruction once, in a table indexed by instruction ID, and
// takes a dying instruction's uses back from its operands.
func removeDeadCode(fn *ir.Func) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			n = max(n, in.ID+1)
		}
	}
	uses := make([]int32, n)
	count := func(in *ir.Instr, delta int32) {
		for _, op := range in.Operands {
			if oi, ok := op.(*ir.Instr); ok && oi.ID < n {
				uses[oi.ID] += delta
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if !in.Dead() {
				count(in, 1)
			}
		}
	}
	removed := 0
	for {
		changed := false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() || in.IsTerminator() {
					continue
				}
				if uses[in.ID] == 0 && sideEffectFree(in) {
					in.MarkDead()
					count(in, -1)
					removed++
					changed = true
				}
			}
		}
		if !changed {
			return removed
		}
	}
}
