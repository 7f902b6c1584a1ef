package cfg

import (
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

// diamond builds: entry -> (then | els) -> join -> ret
func diamond(t *testing.T) (*ir.Func, []*ir.Block) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void, &ir.Arg{Name: "c", Ty: ir.I1})
	entry := b.Block()
	then := b.NewBlock("then")
	els := b.NewBlock("els")
	join := b.NewBlock("join")
	b.CondBr(fn.Params[0], then, els)
	b.SetBlock(then)
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(nil)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return fn, []*ir.Block{entry, then, els, join}
}

func TestDominatorsDiamond(t *testing.T) {
	fn, bs := diamond(t)
	entry, then, els, join := bs[0], bs[1], bs[2], bs[3]
	info := New(fn)
	if info.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", info.IDom(join).Name)
	}
	if !info.Dominates(entry, join) || !info.Dominates(entry, then) {
		t.Error("entry must dominate everything")
	}
	if info.Dominates(then, join) || info.Dominates(els, join) {
		t.Error("branch arms must not dominate the join")
	}
	if !info.Dominates(join, join) {
		t.Error("dominance is reflexive")
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	fn, bs := diamond(t)
	info := New(fn)
	if info.RPO[0] != bs[0] {
		t.Error("RPO must start at the entry block")
	}
	if len(info.RPO) != 4 {
		t.Errorf("RPO covers %d blocks, want 4", len(info.RPO))
	}
}

func TestPredsDeterministic(t *testing.T) {
	fn, bs := diamond(t)
	info := New(fn)
	preds := info.Preds(bs[3])
	if len(preds) != 2 || preds[0] != bs[1] || preds[1] != bs[2] {
		t.Errorf("join preds = %v, want [then els]", preds)
	}
}

// loopFunc builds: entry -> header <-> body ; header -> exit
func loopFunc(t *testing.T) (*ir.Func, *ir.Block, *ir.Block, *ir.Block) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void, &ir.Arg{Name: "n", Ty: ir.I64})
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	iPhi := b.Phi(ir.I64, "i")
	cmp := b.ICmp(ir.PredLT, iPhi, fn.Params[0], "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	i2 := b.Bin(ir.OpAdd, iPhi, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	ir.AddIncoming(iPhi, ir.ConstInt(0), entry)
	ir.AddIncoming(iPhi, i2, body)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return fn, header, body, exit
}

func TestLoopDetection(t *testing.T) {
	fn, header, body, exit := loopFunc(t)
	info := New(fn)
	loops := info.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != header {
		t.Error("wrong loop header")
	}
	if !l.Contains(header) || !l.Contains(body) || l.Contains(exit) {
		t.Error("loop membership wrong")
	}
	if len(l.Latches) != 1 || l.Latches[0] != body {
		t.Error("latch detection wrong")
	}
	if l.Preheader == nil || l.Preheader != fn.Entry() {
		t.Error("preheader detection wrong")
	}
	if len(l.Exits) != 1 || l.Exits[0] != exit {
		t.Error("exit detection wrong")
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
}

func TestNestedLoopDepths(t *testing.T) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void, &ir.Arg{Name: "n", Ty: ir.I64})
	entry := b.Block()
	oh := b.NewBlock("outer.h")
	ih := b.NewBlock("inner.h")
	ib := b.NewBlock("inner.b")
	ol := b.NewBlock("outer.latch")
	exit := b.NewBlock("exit")
	b.Br(oh)
	b.SetBlock(oh)
	oPhi := b.Phi(ir.I64, "i")
	oCmp := b.ICmp(ir.PredLT, oPhi, fn.Params[0], "oc")
	b.CondBr(oCmp, ih, exit)
	b.SetBlock(ih)
	jPhi := b.Phi(ir.I64, "j")
	iCmp := b.ICmp(ir.PredLT, jPhi, fn.Params[0], "ic")
	b.CondBr(iCmp, ib, ol)
	b.SetBlock(ib)
	j2 := b.Bin(ir.OpAdd, jPhi, ir.ConstInt(1), "j2")
	b.Br(ih)
	b.SetBlock(ol)
	i2 := b.Bin(ir.OpAdd, oPhi, ir.ConstInt(1), "i2")
	b.Br(oh)
	b.SetBlock(exit)
	b.Ret(nil)
	ir.AddIncoming(oPhi, ir.ConstInt(0), entry)
	ir.AddIncoming(oPhi, i2, ol)
	ir.AddIncoming(jPhi, ir.ConstInt(0), oh)
	ir.AddIncoming(jPhi, j2, ib)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	info := New(fn)
	loops := info.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	var inner, outer *Loop
	for _, l := range loops {
		if l.Header == ih {
			inner = l
		}
		if l.Header == oh {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("missing loop")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent must be the outer loop")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths inner=%d outer=%d", inner.Depth, outer.Depth)
	}
	if !outer.Contains(ib) {
		t.Error("outer loop must contain inner body")
	}
}

func TestDominatesInstrSameBlock(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	x := b.Bin(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2), "x")
	y := b.Bin(ir.OpAdd, x, ir.ConstInt(1), "y")
	b.Ret(nil)
	info := New(b.Func())
	if !info.DominatesInstr(x, y) {
		t.Error("earlier instr must dominate later in same block")
	}
	if info.DominatesInstr(y, x) {
		t.Error("later instr must not dominate earlier")
	}
	if !info.DominatesInstr(ir.ConstInt(3), x) {
		t.Error("constants dominate everything")
	}
}

func TestUnreachableBlockNotInRPO(t *testing.T) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void)
	b.Ret(nil)
	dead := fn.NewBlock("dead")
	db := ir.NewBuilder(dead)
	db.Ret(nil)
	info := New(fn)
	if info.Reachable(dead) {
		t.Error("dead block must be unreachable")
	}
	if len(info.RPO) != 1 {
		t.Errorf("RPO = %d blocks, want 1", len(info.RPO))
	}
}
