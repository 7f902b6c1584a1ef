package irinterp

import (
	"testing"
	"unsafe"

	"github.com/oraql/go-oraql/internal/ir"
)

// TestScalarSlotIs16Bytes: every slot write, phi copy and call argument
// moves a value, so it holds the scalar word pair and nothing else;
// vector lanes live in the frame's lane array.
func TestScalarSlotIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(value{}); n != 16 {
		t.Errorf("value is %d bytes, want 16", n)
	}
}

// printLanes prints every lane of vec, then a separator.
func printLanes(b *ir.Builder, vec ir.Value) {
	fn := "__print_f64"
	if vec.Type().Elem.Kind == ir.KI64 {
		fn = "__print_i64"
	}
	for l := int64(0); l < int64(vec.Type().Lanes); l++ {
		b.Call(ir.Void, fn, b.VExtract(vec, l, ""))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	}
	b.Call(ir.Void, "__print_str", ir.ConstStr("|"))
}

// raw emits an instruction the builder has no typed helper for.
func raw(b *ir.Builder, op ir.Opcode, ty *ir.Type, ops ...ir.Value) *ir.Instr {
	in := &ir.Instr{Op: op, Ty: ty, Operands: ops}
	insertRaw(b, in)
	return in
}

// TestVectorValuesAcrossCallsPhisAndSelects pins how vector values
// travel through user calls, loop phis, selects and vector-typed
// constants, and what a read of the other shape sees: a scalar read of
// a vector gets its scalar words (zero, or a vector-typed constant's
// integer payload), a vector read of a scalar gets zero lanes, and a
// vector-typed constant has zero lanes. The frontend emits none of
// these, but hand-written IR run by `oraql-opt -run` can.
func TestVectorValuesAcrossCallsPhisAndSelects(t *testing.T) {
	m := ir.NewModule("t")

	// mix(<4 x double> v, <4 x i64> w) = v + sitofp(w)
	v, w := &ir.Arg{Name: "v", Ty: ir.V4F64}, &ir.Arg{Name: "w", Ty: ir.V4I64}
	_, fb := ir.NewFunc(m, "mix", ir.V4F64, v, w)
	fb.Ret(fb.Bin(ir.OpFAdd, v, raw(fb, ir.OpSIToFP, ir.V4F64, w), "s"))

	// inc(<4 x i64> w) = w + splat(10)
	w2 := &ir.Arg{Name: "w", Ty: ir.V4I64}
	_, ib := ir.NewFunc(m, "inc", ir.V4I64, w2)
	ib.Ret(ib.Bin(ir.OpAdd, w2, ib.VSplat(ir.V4I64, ir.ConstInt(10), "ten"), "s"))

	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	fa := b.Alloca(32, "fa")
	ia := b.Alloca(32, "ia")
	for l := int64(0); l < 4; l++ {
		b.Store(ir.ConstFloat(float64(l)+1.5), b.GEP(fa, nil, 0, 8*l, ""), "")
		b.Store(ir.ConstInt(l+1), b.GEP(ia, nil, 0, 8*l, ""), "")
	}
	vf := b.Load(ir.V4F64, fa, "vf")
	vi := b.Load(ir.V4I64, ia, "vi")
	r := b.Call(ir.V4F64, "mix", vf, vi)
	q := b.Call(ir.V4I64, "inc", vi)
	vconstI := &ir.Const{Ty: ir.V4I64, I: 7}
	qc := b.Call(ir.V4I64, "inc", vconstI)
	printLanes(b, r)
	printLanes(b, q)
	printLanes(b, qc)

	// A vector phi carried around a loop: acc += splat(i) for i < 3.
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	i := b.Phi(ir.I64, "i")
	acc := b.Phi(ir.V4F64, "acc")
	b.CondBr(b.ICmp(ir.PredLT, i, ir.ConstInt(3), "c"), body, exit)
	b.SetBlock(body)
	acc2 := b.Bin(ir.OpFAdd, acc, b.VSplat(ir.V4F64, b.SIToFP(i, "fi"), "s"), "acc2")
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.Br(header)
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(acc, r, entry)
	ir.AddIncoming(acc, acc2, body)

	b.SetBlock(exit)
	printLanes(b, acc)
	vconst := &ir.Const{Ty: ir.V4F64, F: 3.5}
	yes := b.ICmp(ir.PredEQ, i, ir.ConstInt(3), "yes")
	sel1 := b.Select(yes, acc, r, "sel1")
	sel2 := b.Select(yes, vconst, acc, "sel2")
	printLanes(b, sel1)
	printLanes(b, b.Bin(ir.OpFAdd, sel2, r, "viaSel"))
	printLanes(b, b.Bin(ir.OpFAdd, vconst, r, "direct"))

	// Scalar reads of vectors: a loop result and a selected constant.
	b.Call(ir.Void, "__print_f64", raw(b, ir.OpFAdd, ir.F64, acc, ir.ConstFloat(1)))
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_f64", raw(b, ir.OpFAdd, ir.F64, sel2, ir.ConstFloat(0.25)))
	b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	b.Call(ir.Void, "__print_i64", raw(b, ir.OpAdd, ir.I64, vconstI, ir.ConstInt(1)))
	b.Call(ir.Void, "__print_str", ir.ConstStr("|"))
	// A vector read of a scalar.
	printLanes(b, raw(b, ir.OpAdd, ir.V4I64, i, q))
	b.Ret(ir.ConstInt(0))

	res := runModule(t, m, Options{})
	const want = "2.5 4.5 6.5 8.5 |11 12 13 14 |10 10 10 10 |5.5 7.5 9.5 11.5 |" +
		"5.5 7.5 9.5 11.5 |2.5 4.5 6.5 8.5 |2.5 4.5 6.5 8.5 |1 0.25 8|11 12 13 14 |"
	if res.Stdout != want {
		t.Errorf("stdout =\n%q\nwant\n%q", res.Stdout, want)
	}
}
