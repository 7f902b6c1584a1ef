package passes

import (
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

func newCtx(m *ir.Module) *Context {
	return &Context{Module: m, AA: aa.NewManager(m, aa.DefaultChain(m)...), Stats: NewStats()}
}

// countedLoop builds: entry -> header(phi i, cmp i<n) -> body(store
// a[i]; i++) -> header; exit returns.
func countedLoop(t testing.TB, n ir.Value) (*ir.Module, *ir.Func) {
	m := ir.NewModule("t")
	var params []*ir.Arg
	if a, ok := n.(*ir.Arg); ok {
		params = append(params, a)
	}
	fn, b := ir.NewFunc(m, "f", ir.Void, params...)
	entry := b.Block()
	a := b.Alloca(1024, "a")
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	iPhi := b.Phi(ir.I64, "i")
	cmp := b.ICmp(ir.PredLT, iPhi, n, "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	g := b.GEP(a, iPhi, 8, 0, "g")
	b.Store(iPhi, g, "long")
	i2 := b.Bin(ir.OpAdd, iPhi, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	ld := b.Load(ir.I64, a, "long")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(nil)
	ir.AddIncoming(iPhi, ir.ConstInt(0), entry)
	ir.AddIncoming(iPhi, i2, body)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m, fn
}

func TestLoopRotateShape(t *testing.T) {
	narg := &ir.Arg{Name: "n", Ty: ir.I64}
	m, fn := countedLoop(t, narg)
	ctx := newCtx(m)
	if (&LoopRotate{}).Run(fn, ctx) == analysis.All {
		t.Fatal("loop should rotate")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("rotated function invalid: %v\n%s", err, fn.String())
	}
	if ctx.Stats.Get("Loop Rotation", "# loops rotated") != 1 {
		t.Error("rotation not counted")
	}
	// The guard now sits in the entry block: its terminator must be
	// conditional.
	if term := fn.Entry().Term(); len(term.Succs) != 2 {
		t.Errorf("entry must end in the guard branch:\n%s", fn.String())
	}
	// Rotating again must be a no-op (bottom-tested form).
	if (&LoopRotate{}).Run(fn, ctx) != analysis.All {
		t.Error("second rotation must not fire")
	}
}

func TestLoopRotateSkipsMultiExit(t *testing.T) {
	// A break edge gives the exit two predecessors; rotation must bail.
	m := ir.NewModule("t")
	narg := &ir.Arg{Name: "n", Ty: ir.I64}
	fn, b := ir.NewFunc(m, "f", ir.Void, narg)
	entry := b.Block()
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	iPhi := b.Phi(ir.I64, "i")
	cmp := b.ICmp(ir.PredLT, iPhi, narg, "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	brk := b.ICmp(ir.PredEQ, iPhi, ir.ConstInt(5), "brk")
	cont := b.NewBlock("cont")
	b.CondBr(brk, exit, cont)
	b.SetBlock(cont)
	i2 := b.Bin(ir.OpAdd, iPhi, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	ir.AddIncoming(iPhi, ir.ConstInt(0), entry)
	ir.AddIncoming(iPhi, i2, cont)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if (&LoopRotate{}).Run(fn, newCtx(m)) != analysis.All {
		t.Error("multi-predecessor exit must not rotate")
	}
}

func TestLoopVectorizeAnalyzeRejects(t *testing.T) {
	// A loop with a call in the body must not vectorize.
	m := ir.NewModule("t")
	narg := &ir.Arg{Name: "n", Ty: ir.I64}
	fn, b := ir.NewFunc(m, "f", ir.Void, narg)
	entry := b.Block()
	a := b.Alloca(1024, "a")
	header := b.NewBlock("header")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(header)
	b.SetBlock(header)
	iPhi := b.Phi(ir.I64, "i")
	cmp := b.ICmp(ir.PredLT, iPhi, narg, "cmp")
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	g := b.GEP(a, iPhi, 8, 0, "g")
	v := b.Call(ir.F64, "__sqrt", ir.ConstFloat(2))
	b.Store(v, g, "double")
	i2 := b.Bin(ir.OpAdd, iPhi, ir.ConstInt(1), "i2")
	b.Br(header)
	b.SetBlock(exit)
	b.Ret(nil)
	ir.AddIncoming(iPhi, ir.ConstInt(0), entry)
	ir.AddIncoming(iPhi, i2, body)
	ctx := newCtx(m)
	(&LoopVectorize{}).Run(fn, ctx)
	if ctx.Stats.Get("Loop Vectorizer", "# vectorized loops") != 0 {
		t.Error("loops with calls must not vectorize")
	}
}

func TestVectorizeCountedLoop(t *testing.T) {
	narg := &ir.Arg{Name: "n", Ty: ir.I64}
	m, fn := countedLoop(t, narg)
	ctx := newCtx(m)
	if (&LoopVectorize{}).Run(fn, ctx) == analysis.All {
		t.Fatalf("loop should vectorize:\n%s", fn.String())
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("vectorized function invalid: %v\n%s", err, fn.String())
	}
	if ctx.Stats.Get("Loop Vectorizer", "# vectorized loops") != 1 {
		t.Error("vectorization not counted")
	}
}

func TestDSESameBlockRules(t *testing.T) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void)
	a := b.Alloca(16, "a")
	s1 := b.Store(ir.ConstInt(1), a, "")
	b.Store(ir.ConstInt(2), a, "")
	ld := b.Load(ir.I64, a, "")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(nil)
	ctx := newCtx(m)
	(&DSE{}).Run(fn, ctx)
	if !s1.Dead() {
		t.Error("overwritten store must die")
	}
	if ctx.Stats.Get("Dead Store Elimination", "# stores deleted") != 1 {
		t.Error("stat missing")
	}
}

func TestDSEDeadObjectStores(t *testing.T) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void)
	dead := b.Alloca(16, "dead")
	live := b.Alloca(16, "live")
	sDead := b.Store(ir.ConstInt(1), dead, "")
	sLive := b.Store(ir.ConstInt(2), live, "")
	ld := b.Load(ir.I64, live, "")
	b.Call(ir.Void, "__print_i64", ld)
	b.Ret(nil)
	(&DSE{}).Run(fn, newCtx(m))
	if !sDead.Dead() {
		t.Error("store to a never-read object must die")
	}
	if sLive.Dead() {
		t.Error("store to a read object must survive")
	}
}

// TestDSEKeepsStoresReadThroughSelect: a load through a select of two
// non-captured arrays reads both, so neither array's stores are dead.
func TestDSEKeepsStoresReadThroughSelect(t *testing.T) {
	m := ir.NewModule("t")
	cond := &ir.Arg{Name: "c", Ty: ir.I64}
	fn, b := ir.NewFunc(m, "f", ir.Void, cond)
	a := b.Alloca(32, "a")
	c := b.Alloca(32, "c")
	sa := b.Store(ir.ConstFloat(42), b.GEP(a, nil, 0, 8, "a1"), "double")
	sc := b.Store(ir.ConstFloat(7), b.GEP(c, nil, 0, 8, "c1"), "double")
	p := b.Select(b.ICmp(ir.PredEQ, cond, ir.ConstInt(1), "is1"), a, c, "p")
	ld := b.Load(ir.F64, b.GEP(p, nil, 0, 8, "p1"), "double")
	b.Call(ir.Void, "__print_f64", ld)
	b.Ret(nil)
	ctx := newCtx(m)
	(&DSE{}).Run(fn, ctx)
	if sa.Dead() || sc.Dead() {
		t.Errorf("stores read through the select must survive: a %v, c %v", !sa.Dead(), !sc.Dead())
	}
	if n := ctx.Stats.Get("Dead Store Elimination", "# stores deleted"); n != 0 {
		t.Errorf("%d stores deleted, want 0", n)
	}
}

func TestSimplifyCFGUnreachable(t *testing.T) {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void)
	b.Ret(nil)
	deadB := fn.NewBlock("dead")
	db := ir.NewBuilder(deadB)
	db.Ret(nil)
	(&SimplifyCFG{}).Run(fn, newCtx(m))
	if len(fn.Blocks) != 1 {
		t.Errorf("unreachable block must be removed, have %d blocks", len(fn.Blocks))
	}
}

func TestEarlyCSEInvalidation(t *testing.T) {
	m := ir.NewModule("t")
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	q := &ir.Arg{Name: "q", Ty: ir.Ptr}
	fn, b := ir.NewFunc(m, "f", ir.F64, p, q)
	l1 := b.Load(ir.F64, p, "double")
	b.Store(ir.ConstFloat(1), q, "double") // may clobber *p
	l2 := b.Load(ir.F64, p, "double")
	sum := b.Bin(ir.OpFAdd, l1, l2, "sum")
	b.Ret(sum)
	(&EarlyCSE{}).Run(fn, newCtx(m))
	if l2.Dead() {
		t.Error("a may-aliasing store must invalidate the available load")
	}
	// With restrict params the forwarding is legal.
	m2 := ir.NewModule("t2")
	p2 := &ir.Arg{Name: "p", Ty: ir.Ptr, NoAlias: true}
	q2 := &ir.Arg{Name: "q", Ty: ir.Ptr, NoAlias: true}
	fn2, b2 := ir.NewFunc(m2, "f", ir.F64, p2, q2)
	l1b := b2.Load(ir.F64, p2, "double")
	b2.Store(ir.ConstFloat(1), q2, "double")
	l2b := b2.Load(ir.F64, p2, "double")
	sum2 := b2.Bin(ir.OpFAdd, l1b, l2b, "sum")
	b2.Ret(sum2)
	(&EarlyCSE{}).Run(fn2, newCtx(m2))
	if !l2b.Dead() {
		t.Error("restrict-separated store must not invalidate the load")
	}
	_ = l1b
	_ = l1
}

func TestStatsRegistryOrderingAndPrint(t *testing.T) {
	s := NewStats()
	s.Add("zeta", "# b", 2)
	s.Add("alpha", "# a", 1)
	s.Add("zeta", "# b", 3)
	es := s.Entries()
	if len(es) != 2 || es[0].Pass != "alpha" || es[1].Value != 5 {
		t.Errorf("entries: %+v", es)
	}
	if s.Get("zeta", "# b") != 5 || s.Get("nope", "x") != 0 {
		t.Error("Get")
	}
}

func TestPipelineQueryAttribution(t *testing.T) {
	m := ir.NewModule("t")
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	q := &ir.Arg{Name: "q", Ty: ir.Ptr}
	_, b := ir.NewFunc(m, "f", ir.Void, p, q)
	l := b.Load(ir.F64, p, "double")
	b.Store(l, q, "double")
	b.Store(ir.ConstFloat(2), q, "double")
	ld := b.Load(ir.F64, p, "double")
	b.Store(ld, q, "double")
	b.Ret(nil)
	mgr := aa.NewManager(m, aa.DefaultChain(m)...)
	ctx := &Context{Module: m, AA: mgr, Stats: NewStats()}
	O3Pipeline().Run(ctx)
	if len(mgr.Stats().QueriesByPass) == 0 {
		t.Error("queries must carry pass attribution")
	}
}
