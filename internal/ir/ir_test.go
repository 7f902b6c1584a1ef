package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int64
	}{
		{I1, 1}, {I64, 8}, {F64, 8}, {Ptr, 8}, {V4F64, 32}, {V4I64, 32}, {Void, 0},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.size {
			t.Errorf("%s.Size() = %d, want %d", c.ty, got, c.size)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !F64.IsFloat() || !V4F64.IsFloat() || I64.IsFloat() {
		t.Error("IsFloat misclassifies")
	}
	if !I64.IsInt() || !I1.IsInt() || !V4I64.IsInt() || F64.IsInt() {
		t.Error("IsInt misclassifies")
	}
}

func TestVecTypeInterning(t *testing.T) {
	if VecType(F64, 4) != V4F64 || VecType(I64, 4) != V4I64 {
		t.Error("VecType must return interned instances")
	}
	defer func() {
		if recover() == nil {
			t.Error("VecType(F64, 3) should panic")
		}
	}()
	VecType(F64, 3)
}

func TestTypeString(t *testing.T) {
	if V4F64.String() != "<4 x double>" {
		t.Errorf("V4F64.String() = %q", V4F64.String())
	}
	if Ptr.String() != "ptr" || I64.String() != "i64" {
		t.Error("scalar type names wrong")
	}
}

func TestConstIdentAndVID(t *testing.T) {
	a := ConstInt(7)
	b := ConstInt(7)
	if a.VID() != b.VID() {
		t.Error("equal int constants must share VIDs")
	}
	if a.Ident() != "7" {
		t.Errorf("Ident = %q", a.Ident())
	}
	f := ConstFloat(2.5)
	if f.Ident() != "2.5" {
		t.Errorf("float Ident = %q", f.Ident())
	}
	if ConstBool(true).I != 1 || ConstBool(false).I != 0 {
		t.Error("bool constants")
	}
}

func TestVIDNamespacesDisjoint(t *testing.T) {
	m := NewModule("t")
	g := m.AddGlobal(&Global{Name: "g", Size: 8})
	fn, b := NewFunc(m, "f", Void, &Arg{Name: "p", Ty: Ptr})
	in := b.Alloca(8, "x")
	b.Ret(nil)
	ids := map[int64]string{}
	for name, v := range map[string]Value{
		"const": ConstInt(0), "global": g, "arg": fn.Params[0], "instr": in,
	} {
		if prev, dup := ids[v.VID()]; dup {
			t.Fatalf("VID collision between %s and %s", prev, name)
		}
		ids[v.VID()] = name
	}
}

func TestBuilderProducesVerifiableIR(t *testing.T) {
	m := NewModule("t")
	fn, b := NewFunc(m, "sum", I64, &Arg{Name: "n", Ty: I64})
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	iPhi := b.Phi(I64, "i")
	sPhi := b.Phi(I64, "s")
	cmp := b.ICmp(PredLT, iPhi, fn.Params[0], "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	s2 := b.Bin(OpAdd, sPhi, iPhi, "s2")
	i2 := b.Bin(OpAdd, iPhi, ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(sPhi)
	AddIncoming(iPhi, ConstInt(0), entry)
	AddIncoming(iPhi, i2, body)
	AddIncoming(sPhi, ConstInt(0), entry)
	AddIncoming(sPhi, s2, body)
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v\n%s", err, m.String())
	}
}

func TestBuilderPanicsAfterTerminator(t *testing.T) {
	m := NewModule("t")
	_, b := NewFunc(m, "f", Void)
	b.Ret(nil)
	defer func() {
		if recover() == nil {
			t.Error("emitting after a terminator must panic")
		}
	}()
	b.Alloca(8, "x")
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("t")
	_, b := NewFunc(m, "f", Void)
	b.Alloca(8, "x")
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Errorf("want missing-terminator error, got %v", err)
	}
}

func TestVerifyCatchesUseOfDeadValue(t *testing.T) {
	m := NewModule("t")
	_, b := NewFunc(m, "f", Void)
	a := b.Alloca(8, "x")
	b.Load(I64, a, "")
	b.Ret(nil)
	a.MarkDead()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Errorf("want dead-value error, got %v", err)
	}
}

func TestVerifyCatchesDominanceViolation(t *testing.T) {
	m := NewModule("t")
	fn, b := NewFunc(m, "f", Void, &Arg{Name: "c", Ty: I1})
	then := b.NewBlock("then")
	els := b.NewBlock("els")
	join := b.NewBlock("join")
	b.CondBr(fn.Params[0], then, els)
	b.SetBlock(then)
	v := b.Bin(OpAdd, ConstInt(1), ConstInt(2), "v")
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	b.Bin(OpAdd, v, ConstInt(1), "use") // v does not dominate join
	b.Ret(nil)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "dominate") {
		t.Errorf("want dominance error, got %v", err)
	}
}

func TestVerifyCatchesCallToUndefined(t *testing.T) {
	m := NewModule("t")
	_, b := NewFunc(m, "f", Void)
	b.Call(Void, "missing")
	b.Ret(nil)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "undefined function") {
		t.Errorf("want undefined-function error, got %v", err)
	}
}

// TestVerifyCatchesBadIDs covers the ID invariant that ID-indexed
// analysis tables rest on: block and instruction IDs, dead instructions'
// included, are unique and below the function's next-ID counters.
func TestVerifyCatchesBadIDs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(fn *Func, x, y *Instr)
		want   string
	}{
		{"valid", func(*Func, *Instr, *Instr) {}, ""},
		{"repeated block ID", func(fn *Func, _, _ *Instr) { fn.Blocks[1].ID = fn.Blocks[0].ID }, "repeats block"},
		{"block ID at NextBlockID", func(fn *Func, _, _ *Instr) { fn.Blocks[1].ID = fn.NextBlockID() }, "NextBlockID"},
		{"foreign block", func(fn *Func, _, _ *Instr) { fn.Blocks[1].Parent = nil }, "wrong parent"},
		{"repeated instruction ID", func(_ *Func, x, y *Instr) { y.ID = x.ID }, "ID repeats"},
		{"dead instruction repeats an ID", func(_ *Func, x, y *Instr) { y.MarkDead(); y.ID = x.ID }, "ID repeats"},
		{"instruction ID at NextInstrID", func(fn *Func, _, y *Instr) { y.ID = fn.NextInstrID() }, "NextInstrID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModule("t")
			fn, b := NewFunc(m, "f", Void)
			next := b.NewBlock("next")
			x := b.Alloca(8, "x")
			y := b.Bin(OpAdd, ConstInt(1), ConstInt(2), "y")
			b.Br(next)
			b.SetBlock(next)
			b.Ret(nil)
			tc.mutate(fn, x, y)
			err := Verify(m)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid function rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestVerifyAllowsIntrinsics(t *testing.T) {
	m := NewModule("t")
	_, b := NewFunc(m, "f", Void)
	b.Call(F64, "__sqrt", ConstFloat(2))
	b.Ret(nil)
	if err := Verify(m); err != nil {
		t.Errorf("intrinsic call rejected: %v", err)
	}
}

func TestTBAATree(t *testing.T) {
	tr := NewTBAATree()
	tr.Add("SNA", RootTag)
	tr.Add("SNA.dptr", "SNA")
	cases := []struct {
		a, b string
		may  bool
	}{
		{"long", "double", false},
		{"long", "long", true},
		{"", "double", true},
		{RootTag, "double", true},
		{"SNA.dptr", "SNA", true}, // ancestor
		{"SNA.dptr", "long", false},
		{"unknown-a", "unknown-b", false}, // distinct root children
	}
	for _, c := range cases {
		if got := tr.MayAlias(c.a, c.b); got != c.may {
			t.Errorf("MayAlias(%q,%q) = %v, want %v", c.a, c.b, got, c.may)
		}
		if got := tr.MayAlias(c.b, c.a); got != c.may {
			t.Errorf("MayAlias(%q,%q) not symmetric", c.b, c.a)
		}
	}
}

func TestTBAATreeReAddPanics(t *testing.T) {
	tr := NewTBAATree()
	tr.Add("x", RootTag)
	tr.Add("x", RootTag) // same parent: fine
	defer func() {
		if recover() == nil {
			t.Error("re-adding with different parent must panic")
		}
	}()
	tr.Add("x", "long")
}

// Property: TBAA MayAlias is symmetric for arbitrary tag names.
func TestTBAASymmetryProperty(t *testing.T) {
	tr := NewTBAATree()
	tr.Add("a", RootTag)
	tr.Add("b", "a")
	tr.Add("c", "b")
	tags := []string{"", RootTag, "long", "double", "a", "b", "c", "zzz"}
	f := func(i, j uint8) bool {
		x := tags[int(i)%len(tags)]
		y := tags[int(j)%len(tags)]
		return tr.MayAlias(x, y) == tr.MayAlias(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModuleLookups(t *testing.T) {
	m := NewModule("t")
	g := m.AddGlobal(&Global{Name: "g", Size: 16})
	fn, b := NewFunc(m, "f", Void)
	b.Ret(nil)
	if m.GlobalByName("g") != g || m.GlobalByName("nope") != nil {
		t.Error("GlobalByName")
	}
	if m.FuncByName("f") != fn || m.FuncByName("nope") != nil {
		t.Error("FuncByName")
	}
}

func TestBlockCompactAndInstrCount(t *testing.T) {
	m := NewModule("t")
	fn, b := NewFunc(m, "f", Void)
	x := b.Alloca(8, "x")
	y := b.Alloca(8, "y")
	b.Ret(nil)
	if fn.InstrCount() != 3 {
		t.Fatalf("InstrCount = %d", fn.InstrCount())
	}
	x.MarkDead()
	if fn.InstrCount() != 2 {
		t.Fatalf("InstrCount after kill = %d", fn.InstrCount())
	}
	fn.Compact()
	if len(fn.Entry().Instrs) != 2 || fn.Entry().Instrs[0] != y {
		t.Error("Compact did not erase the dead instruction")
	}
}

func TestReplaceAllUses(t *testing.T) {
	m := NewModule("t")
	fn, b := NewFunc(m, "f", I64)
	a := b.Bin(OpAdd, ConstInt(1), ConstInt(2), "a")
	u := b.Bin(OpMul, a, a, "u")
	b.Ret(u)
	fn.ReplaceAllUses(a, ConstInt(3))
	for _, op := range u.Operands {
		if op != Value(u.Operands[0]) {
			t.Error("operands should both be the replacement")
		}
		if c, ok := op.(*Const); !ok || c.I != 3 {
			t.Errorf("operand not replaced: %v", op)
		}
	}
}

func TestCalleeEffects(t *testing.T) {
	if e := CalleeEffects("__sqrt"); e.Reads || e.Writes {
		t.Error("__sqrt must be readnone")
	}
	if e := CalleeEffects("__mpi_sendrecv"); !e.Reads || !e.Writes || !e.ArgMemOnly {
		t.Error("sendrecv must be argmemonly read+write")
	}
	if e := CalleeEffects("userfn"); !e.Reads || !e.Writes {
		t.Error("unknown callees must be conservative")
	}
	if !IsIntrinsic("__print_i64") || IsIntrinsic("main") {
		t.Error("IsIntrinsic")
	}
}

func TestAllocIDMonotonic(t *testing.T) {
	m := NewModule("t")
	fn, b := NewFunc(m, "f", Void)
	x := b.Alloca(8, "x")
	b.Ret(nil)
	id := fn.AllocID()
	if id <= x.ID {
		t.Errorf("AllocID %d must exceed existing IDs (%d)", id, x.ID)
	}
	if fn.AllocID() <= id {
		t.Error("AllocID must be monotonically increasing")
	}
}

func TestPrinterRoundsKeyForms(t *testing.T) {
	m := NewModule("demo")
	g := m.AddGlobal(&Global{Name: "tab", Size: 32, Const: true})
	fn, b := NewFunc(m, "f", Void, &Arg{Name: "p", Ty: Ptr, NoAlias: true})
	idx := b.GEP(g, fn.Params[0], 8, 16, "idx")
	ld := b.Load(F64, idx, "double")
	b.Store(ld, fn.Params[0], "double")
	b.Ret(nil)
	out := m.String()
	for _, want := range []string{
		"@tab = global [32 bytes] const",
		"define void @f(ptr noalias %p)",
		"gep @tab + %p*8 + 16",
		`!tbaa "double"`,
		"ret void",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q in:\n%s", want, out)
		}
	}
}
