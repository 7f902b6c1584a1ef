package aa

import (
	"testing"
	"testing/quick"

	"github.com/oraql/go-oraql/internal/ir"
)

// fixture builds a function with two allocas, two pointer params (one
// restrict), GEPs off each, and a builder positioned for more.
type fixture struct {
	m   *ir.Module
	fn  *ir.Func
	b   *ir.Builder
	a1  *ir.Instr // alloca 64
	a2  *ir.Instr // alloca 64
	p   *ir.Arg   // plain pointer param
	q   *ir.Arg   // restrict pointer param
	idx *ir.Arg   // i64 param
}

func newFixture(t testing.TB) *fixture {
	m := ir.NewModule("t")
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	q := &ir.Arg{Name: "q", Ty: ir.Ptr, NoAlias: true}
	idx := &ir.Arg{Name: "i", Ty: ir.I64}
	fn, b := ir.NewFunc(m, "f", ir.Void, p, q, idx)
	f := &fixture{m: m, fn: fn, b: b, p: p, q: q, idx: idx}
	f.a1 = b.Alloca(64, "a1")
	f.a2 = b.Alloca(64, "a2")
	return f
}

func (f *fixture) loc(ptr ir.Value, size int64) MemLoc {
	return MemLoc{Ptr: ptr, Size: PreciseSize(size)}
}

func TestBasicAAIdentical(t *testing.T) {
	f := newFixture(t)
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(f.a1, 8), f.loc(f.a1, 8), nil); r != MustAlias {
		t.Errorf("same pointer = %v, want must-alias", r)
	}
}

func TestBasicAADistinctAllocas(t *testing.T) {
	f := newFixture(t)
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), nil); r != NoAlias {
		t.Errorf("distinct allocas = %v, want no-alias", r)
	}
}

func TestBasicAAConstGEPRanges(t *testing.T) {
	f := newFixture(t)
	g0 := f.b.GEP(f.a1, nil, 0, 0, "g0")
	g8 := f.b.GEP(f.a1, nil, 0, 8, "g8")
	g4 := f.b.GEP(f.a1, nil, 0, 4, "g4")
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(g0, 8), f.loc(g8, 8), nil); r != NoAlias {
		t.Errorf("[0,8) vs [8,16) = %v, want no-alias", r)
	}
	if r := ba.Alias(f.loc(g0, 8), f.loc(g4, 8), nil); r != PartialAlias {
		t.Errorf("[0,8) vs [4,12) = %v, want partial-alias", r)
	}
	if r := ba.Alias(f.loc(g0, 8), f.loc(g0, 8), nil); r != MustAlias {
		t.Errorf("same offset = %v, want must-alias", r)
	}
}

func TestBasicAAVariableIndexSameBase(t *testing.T) {
	f := newFixture(t)
	gi := f.b.GEP(f.a1, f.idx, 8, 0, "gi")
	g0 := f.b.GEP(f.a1, nil, 0, 0, "g0")
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(gi, 8), f.loc(g0, 8), nil); r != MayAlias {
		t.Errorf("variable index vs const = %v, want may-alias", r)
	}
}

func TestBasicAAUnknownSizeBlocksDisjointness(t *testing.T) {
	f := newFixture(t)
	g0 := f.b.GEP(f.a1, nil, 0, 0, "g0")
	g8 := f.b.GEP(f.a1, nil, 0, 8, "g8")
	ba := NewBasicAA()
	a := MemLoc{Ptr: g0, Size: UnknownSize}
	if r := ba.Alias(a, f.loc(g8, 8), nil); r != MayAlias {
		t.Errorf("unknown size below = %v, want may-alias", r)
	}
	// The unknown-size location ABOVE a known one cannot reach down.
	if r := ba.Alias(f.loc(g0, 8), MemLoc{Ptr: g8, Size: UnknownSize}, nil); r != NoAlias {
		t.Errorf("known [0,8) vs unknown at 8 = %v, want no-alias", r)
	}
}

func TestBasicAANonCapturedAllocaVsParam(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(f.a1, 8), f.loc(f.p, 8), nil); r != NoAlias {
		t.Errorf("non-captured alloca vs param = %v, want no-alias", r)
	}
}

func TestBasicAACapturedAllocaVsLoadedPtr(t *testing.T) {
	f := newFixture(t)
	// Capture a1 by storing its address through p.
	f.b.Store(f.a1, f.p, "")
	ld := f.b.Load(ir.Ptr, f.q, "")
	f.b.Ret(nil)
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(f.a1, 8), f.loc(ld, 8), nil); r != MayAlias {
		t.Errorf("captured alloca vs loaded ptr = %v, want may-alias", r)
	}
}

func TestBasicAANonCapturedAllocaVsLoadedPtr(t *testing.T) {
	f := newFixture(t)
	ld := f.b.Load(ir.Ptr, f.q, "")
	f.b.Ret(nil)
	ba := NewBasicAA()
	if r := ba.Alias(f.loc(f.a2, 8), f.loc(ld, 8), nil); r != NoAlias {
		t.Errorf("non-captured alloca vs loaded ptr = %v, want no-alias", r)
	}
}

func TestBasicAASymmetryProperty(t *testing.T) {
	f := newFixture(t)
	gi := f.b.GEP(f.a1, f.idx, 8, 0, "gi")
	g0 := f.b.GEP(f.a1, nil, 0, 0, "g0")
	ld := f.b.Load(ir.Ptr, f.p, "")
	f.b.Ret(nil)
	ba := NewBasicAA()
	vals := []ir.Value{f.a1, f.a2, f.p, f.q, gi, g0, ld}
	sizes := []int64{1, 8, 16}
	prop := func(i, j, si, sj uint8) bool {
		a := MemLoc{Ptr: vals[int(i)%len(vals)], Size: PreciseSize(sizes[int(si)%len(sizes)])}
		b := MemLoc{Ptr: vals[int(j)%len(vals)], Size: PreciseSize(sizes[int(sj)%len(sizes)])}
		ra := ba.Alias(a, b, nil)
		rb := ba.Alias(b, a, nil)
		// Must/No/May are symmetric; Partial may degrade to Partial only.
		return ra == rb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: BasicAA's constant-offset verdicts agree with brute-force
// interval arithmetic.
func TestBasicAAConstOffsetGroundTruthProperty(t *testing.T) {
	f := newFixture(t)
	ba := NewBasicAA()
	prop := func(ro1, ro2 uint8, rs1, rs2 uint8) bool {
		off1 := int64(ro1 % 64)
		off2 := int64(ro2 % 64)
		s1 := int64(rs1%16) + 1
		s2 := int64(rs2%16) + 1
		g1 := f.b.GEP(f.a1, nil, 0, off1, "x")
		g2 := f.b.GEP(f.a1, nil, 0, off2, "y")
		r := ba.Alias(MemLoc{Ptr: g1, Size: PreciseSize(s1)}, MemLoc{Ptr: g2, Size: PreciseSize(s2)}, nil)
		overlap := off1 < off2+s2 && off2 < off1+s1
		switch r {
		case NoAlias:
			return !overlap
		case MustAlias:
			return off1 == off2
		case PartialAlias:
			return overlap && off1 != off2
		}
		return true // may-alias is always sound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTypeBasedAA(t *testing.T) {
	f := newFixture(t)
	tb := NewTypeBasedAA(f.m)
	mk := func(tag string) MemLoc {
		return MemLoc{Ptr: f.p, Size: PreciseSize(8), TBAA: tag}
	}
	if r := tb.Alias(mk("long"), mk("double"), nil); r != NoAlias {
		t.Errorf("long vs double = %v", r)
	}
	if r := tb.Alias(mk("long"), mk("long"), nil); r != MayAlias {
		t.Errorf("long vs long = %v", r)
	}
	if r := tb.Alias(mk(""), mk("double"), nil); r != MayAlias {
		t.Errorf("untagged = %v", r)
	}
}

func TestScopedNoAliasAA(t *testing.T) {
	f := newFixture(t)
	sa := NewScopedNoAliasAA()
	a := MemLoc{Ptr: f.p, Size: PreciseSize(8), Scopes: []string{"s1"}}
	b := MemLoc{Ptr: f.q, Size: PreciseSize(8), NoAliasScope: []string{"s1"}}
	if r := sa.Alias(a, b, nil); r != NoAlias {
		t.Errorf("scoped exclusion = %v", r)
	}
	c := MemLoc{Ptr: f.q, Size: PreciseSize(8), NoAliasScope: []string{"s2"}}
	if r := sa.Alias(a, c, nil); r != MayAlias {
		t.Errorf("non-intersecting scopes = %v", r)
	}
}

func TestArgAttrAA(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	ar := NewArgAttrAA()
	if r := ar.Alias(f.loc(f.q, 8), f.loc(f.a1, 8), nil); r != NoAlias {
		t.Errorf("restrict arg vs alloca = %v", r)
	}
	if r := ar.Alias(f.loc(f.p, 8), f.loc(f.q, 8), nil); r != NoAlias {
		t.Errorf("restrict arg vs identified... plain param is not identified; got %v", r)
	}
}

func TestArgAttrAAPlainParams(t *testing.T) {
	f := newFixture(t)
	p2 := &ir.Arg{Name: "p2", Ty: ir.Ptr, ID: 3, Func: f.fn}
	f.fn.Params = append(f.fn.Params, p2)
	ar := NewArgAttrAA()
	if r := ar.Alias(f.loc(f.p, 8), f.loc(p2, 8), nil); r != MayAlias {
		t.Errorf("two plain params = %v, want may-alias", r)
	}
}

func TestGlobalsAANonEscaping(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal(&ir.Global{Name: "g", Size: 64})
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	_, b := ir.NewFunc(m, "f", ir.Void, p)
	ld := b.Load(ir.Ptr, p, "")
	b.Ret(nil)
	ga := NewGlobalsAA(m)
	if ga.Escaped(g) {
		t.Fatal("g must not be escaped")
	}
	if r := ga.Alias(MemLoc{Ptr: g, Size: PreciseSize(8)}, MemLoc{Ptr: ld, Size: PreciseSize(8)}, nil); r != NoAlias {
		t.Errorf("non-escaping global vs loaded ptr = %v", r)
	}
}

func TestGlobalsAAEscaped(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal(&ir.Global{Name: "g", Size: 64})
	p := &ir.Arg{Name: "p", Ty: ir.Ptr}
	_, b := ir.NewFunc(m, "f", ir.Void, p)
	b.Store(g, p, "") // address escapes
	ld := b.Load(ir.Ptr, p, "")
	b.Ret(nil)
	ga := NewGlobalsAA(m)
	if !ga.Escaped(g) {
		t.Fatal("g must be escaped after its address is stored")
	}
	if r := ga.Alias(MemLoc{Ptr: g, Size: PreciseSize(8)}, MemLoc{Ptr: ld, Size: PreciseSize(8)}, nil); r != MayAlias {
		t.Errorf("escaped global vs loaded ptr = %v", r)
	}
}

func TestGlobalsAAEscapeThroughGEPAndCall(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal(&ir.Global{Name: "g", Size: 64})
	callee, cb := ir.NewFunc(m, "sink", ir.Void, &ir.Arg{Name: "x", Ty: ir.Ptr})
	cb.Ret(nil)
	_ = callee
	_, b := ir.NewFunc(m, "f", ir.Void)
	gp := b.GEP(g, nil, 0, 8, "gp")
	b.Call(ir.Void, "sink", gp)
	b.Ret(nil)
	ga := NewGlobalsAA(m)
	if !ga.Escaped(g) {
		t.Error("global passed (via GEP) to a call must count as escaped")
	}
}

func TestSteensgaardDistinguishesMallocs(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	p1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	p2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	g1 := b.GEP(p1, nil, 0, 8, "g1")
	b.Ret(nil)
	sa := NewSteensgaardAA(m)
	if r := sa.Alias(MemLoc{Ptr: p1, Size: PreciseSize(8)}, MemLoc{Ptr: p2, Size: PreciseSize(8)}, nil); r != NoAlias {
		t.Errorf("distinct mallocs = %v", r)
	}
	if r := sa.Alias(MemLoc{Ptr: p1, Size: PreciseSize(8)}, MemLoc{Ptr: g1, Size: PreciseSize(8)}, nil); r != MayAlias {
		t.Errorf("malloc vs its own gep = %v, want may-alias", r)
	}
}

func TestSteensgaardUnifiesThroughStore(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	slot1 := b.Alloca(8, "s1")
	slot2 := b.Alloca(8, "s2")
	obj := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	b.Store(obj, slot1, "")
	b.Store(obj, slot2, "")
	l1 := b.Load(ir.Ptr, slot1, "")
	l2 := b.Load(ir.Ptr, slot2, "")
	b.Ret(nil)
	sa := NewSteensgaardAA(m)
	if r := sa.Alias(MemLoc{Ptr: l1, Size: PreciseSize(8)}, MemLoc{Ptr: l2, Size: PreciseSize(8)}, nil); r != MayAlias {
		t.Errorf("loads of the same stored pointer = %v, want may-alias", r)
	}
}

func TestAndersenFlowThroughMemory(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	slot := b.Alloca(8, "slot")
	o1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	o2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	b.Store(o1, slot, "")
	ld := b.Load(ir.Ptr, slot, "")
	b.Ret(nil)
	an := NewAndersenAA(m)
	if r := an.Alias(MemLoc{Ptr: ld, Size: PreciseSize(8)}, MemLoc{Ptr: o1, Size: PreciseSize(8)}, nil); r != MayAlias {
		t.Errorf("loaded pointer vs its source = %v, want may-alias", r)
	}
	if r := an.Alias(MemLoc{Ptr: ld, Size: PreciseSize(8)}, MemLoc{Ptr: o2, Size: PreciseSize(8)}, nil); r != NoAlias {
		t.Errorf("loaded pointer vs unrelated malloc = %v, want no-alias", r)
	}
}

func TestAndersenInterprocedural(t *testing.T) {
	m := ir.NewModule("t")
	parg := &ir.Arg{Name: "x", Ty: ir.Ptr}
	callee, cb := ir.NewFunc(m, "use", ir.Void, parg)
	cb.Ret(nil)
	_ = callee
	_, b := ir.NewFunc(m, "f", ir.Void)
	o1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	o2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(8))
	b.Call(ir.Void, "use", o1)
	b.Ret(nil)
	an := NewAndersenAA(m)
	if r := an.Alias(MemLoc{Ptr: parg, Size: PreciseSize(8)}, MemLoc{Ptr: o1, Size: PreciseSize(8)}, nil); r != MayAlias {
		t.Errorf("param vs passed malloc = %v, want may-alias", r)
	}
	if r := an.Alias(MemLoc{Ptr: parg, Size: PreciseSize(8)}, MemLoc{Ptr: o2, Size: PreciseSize(8)}, nil); r != NoAlias {
		t.Errorf("param vs unpassed malloc = %v, want no-alias", r)
	}
}

func TestManagerChainFirstDefinitiveWins(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	mgr := NewManager(f.m, NewBasicAA(), NewTypeBasedAA(f.m))
	r := mgr.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), &QueryCtx{Pass: "test", Func: f.fn})
	if r != NoAlias {
		t.Fatalf("chain result = %v", r)
	}
	st := mgr.Stats()
	if st.Queries != 1 || st.NoAlias != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.NoAliasByAnalysis["basic-aa"] != 1 {
		t.Error("no-alias must be attributed to basic-aa")
	}
	if st.QueriesByPass["test"] != 1 {
		t.Error("query must be attributed to the requesting pass")
	}
}

func TestManagerMayAliasFallback(t *testing.T) {
	f := newFixture(t)
	ld1 := f.b.Load(ir.Ptr, f.p, "")
	ld2 := f.b.Load(ir.Ptr, f.p, "")
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	if r := mgr.Alias(f.loc(ld1, 8), f.loc(ld2, 8), nil); r != MayAlias {
		t.Errorf("two loaded pointers = %v, want may-alias fallback", r)
	}
	if mgr.Stats().MayAlias != 1 {
		t.Error("may-alias fallback must be counted")
	}
}

func TestAccessLocs(t *testing.T) {
	f := newFixture(t)
	ld := f.b.Load(ir.F64, f.p, "double")
	st := f.b.Store(ld, f.q, "double")
	cp := f.b.MemCpy(f.a1, f.a2, ir.ConstInt(16))
	call := f.b.Call(ir.Void, "__mpi_sendrecv", f.p, f.q, ir.ConstInt(8), ir.ConstInt(0), ir.ConstInt(0))
	f.b.Ret(nil)

	r, w := AccessLocs(ld)
	if len(r) != 1 || len(w) != 0 || r[0].Size.Bytes != 8 || r[0].TBAA != "double" {
		t.Errorf("load locs: %v %v", r, w)
	}
	r, w = AccessLocs(st)
	if len(r) != 0 || len(w) != 1 || w[0].Ptr != ir.Value(f.q) {
		t.Errorf("store locs: %v %v", r, w)
	}
	r, w = AccessLocs(cp)
	if len(r) != 1 || len(w) != 1 || !r[0].Size.Known || r[0].Size.Bytes != 16 {
		t.Errorf("memcpy locs: %v %v", r, w)
	}
	r, w = AccessLocs(call)
	if len(r) != 2 || len(w) != 2 {
		t.Errorf("sendrecv locs: %d reads %d writes", len(r), len(w))
	}
	if r[0].Size.Known {
		t.Error("call arg locations must be beforeOrAfterPointer")
	}
}

func TestLocationSizeString(t *testing.T) {
	if got := PreciseSize(8).String(); got != "LocationSize::precise(8)" {
		t.Errorf("precise = %q", got)
	}
	if got := UnknownSize.String(); got != "LocationSize::beforeOrAfterPointer" {
		t.Errorf("unknown = %q", got)
	}
}

func TestUnderlyingObject(t *testing.T) {
	f := newFixture(t)
	g := f.b.GEP(f.a1, f.idx, 8, 16, "g")
	g2 := f.b.GEP(g, nil, 0, 8, "g2")
	ld := f.b.Load(ir.Ptr, f.p, "")
	f.b.Ret(nil)
	if UnderlyingObject(g2) != ir.Value(f.a1) {
		t.Error("GEP chain must strip to the alloca")
	}
	if UnderlyingObject(ld) != nil {
		t.Error("loads have unknown provenance")
	}
	if UnderlyingObject(f.p) != ir.Value(f.p) {
		t.Error("arguments are their own base")
	}
}

func TestIsNonCapturedCases(t *testing.T) {
	// Each case builds f(p ptr, c i1) around the local a and says
	// whether a stays non-captured.
	type build func(m *ir.Module, fn *ir.Func, b *ir.Builder, a *ir.Instr)
	// twoBlocks lays out entry -> early -> late -> exit with late listed
	// before early in fn.Blocks, as loop rotation leaves a latch above
	// its body. early defines g1 = GEP a, so a value late derives from g1
	// turns derived only in the sweep after the one that passed its use.
	twoBlocks := func(late func(b *ir.Builder, g1 *ir.Instr)) build {
		return func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			lateB := b.NewBlock("late")
			earlyB := b.NewBlock("early")
			b.Br(earlyB)
			b.SetBlock(earlyB)
			g1 := b.GEP(a, nil, 0, 8, "g1")
			b.Br(lateB)
			b.SetBlock(lateB)
			late(b, g1)
			b.Ret(nil)
		}
	}
	cases := []struct {
		name        string
		build       build
		nonCaptured bool
	}{
		{"loads stores and GEPs only", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			g := b.GEP(a, nil, 0, 8, "g")
			b.Store(ir.ConstInt(1), g, "")
			b.Load(ir.I64, a, "")
			b.Ret(nil)
		}, true},
		{"passed to a fork", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.Call(ir.Void, "__omp_fork", ir.ConstStr("out"), a, ir.ConstInt(4))
			b.Ret(nil)
		}, false},
		{"GEP of a later block's GEP escapes", twoBlocks(func(b *ir.Builder, g1 *ir.Instr) {
			g2 := b.GEP(g1, nil, 0, 8, "g2")
			b.Store(g2, b.Func().Params[0], "")
		}), false},
		{"select of a later block's GEP escapes", twoBlocks(func(b *ir.Builder, g1 *ir.Instr) {
			s := b.Select(b.Func().Params[1], g1, b.Func().Params[0], "s")
			b.Call(ir.Void, "sink", s)
		}), false},
		{"GEP chain listed against its order escapes in the third sweep", func(_ *ir.Module, fn *ir.Func, b *ir.Builder, a *ir.Instr) {
			late, mid, early := b.NewBlock("late"), b.NewBlock("mid"), b.NewBlock("early")
			b.Br(early)
			b.SetBlock(early)
			g1 := b.GEP(a, nil, 0, 8, "g1")
			b.Br(mid)
			b.SetBlock(mid)
			g2 := b.GEP(g1, nil, 0, 8, "g2")
			b.Br(late)
			b.SetBlock(late)
			b.Store(b.GEP(g2, nil, 0, 8, "g3"), fn.Params[0], "")
			b.Ret(nil)
		}, false},
		{"store passed before its value turns derived", twoBlocks(func(b *ir.Builder, g1 *ir.Instr) {
			b.Store(g1, b.Func().Params[0], "")
		}), false},
		{"later block's GEP only loaded through", twoBlocks(func(b *ir.Builder, g1 *ir.Instr) {
			g2 := b.GEP(g1, nil, 0, 8, "g2")
			b.Store(ir.ConstInt(1), g2, "")
			b.Load(ir.I64, g2, "")
		}), true},
		{"memcpy", func(_ *ir.Module, fn *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.MemCpy(a, fn.Params[0], ir.ConstInt(8))
			b.MemCpy(fn.Params[0], a, ir.ConstInt(8))
			b.Call(ir.Void, "__memcpy", b.GEP(a, nil, 0, 8, "g"), fn.Params[0], ir.ConstInt(8))
			b.Ret(nil)
		}, true},
		{"non-capturing intrinsic", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.Call(ir.F64, "__checksum_f64", a, ir.ConstInt(8))
			b.Call(ir.Void, "__free", a)
			b.Ret(nil)
		}, true},
		{"readnone intrinsic", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.Call(ir.I64, "__omp_thread_id", a)
			b.Ret(nil)
		}, true},
		{"user call", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.Call(ir.Void, "sink", b.GEP(a, nil, 0, 8, "g"))
			b.Ret(nil)
		}, false},
		{"phi", func(_ *ir.Module, fn *ir.Func, b *ir.Builder, a *ir.Instr) {
			entry, join := b.Block(), b.NewBlock("join")
			b.Br(join)
			b.SetBlock(join)
			phi := b.Phi(ir.Ptr, "phi")
			ir.AddIncoming(phi, a, entry)
			b.Ret(nil)
		}, false},
		{"ret", func(_ *ir.Module, _ *ir.Func, b *ir.Builder, a *ir.Instr) {
			b.Ret(b.GEP(a, nil, 0, 8, "g"))
		}, false},
		{"another function's instruction with the same ID", func(m *ir.Module, fn *ir.Func, b *ir.Builder, a *ir.Instr) {
			other, ob := ir.NewFunc(m, "other", ir.Void)
			for other.NextInstrID() < a.ID {
				other.AllocID()
			}
			twin := ob.Alloca(64, "twin")
			ob.Ret(nil)
			if twin.ID != a.ID {
				t.Fatalf("twin ID %d, a ID %d", twin.ID, a.ID)
			}
			b.Store(twin, fn.Params[0], "")
			b.Ret(nil)
		}, true},
	}
	run := func(t *testing.T, skipIDs int, bld build, want bool) {
		m := ir.NewModule("t")
		_, sb := ir.NewFunc(m, "sink", ir.Void, &ir.Arg{Name: "x", Ty: ir.Ptr})
		sb.Ret(nil)
		fn, b := ir.NewFunc(m, "f", ir.Void, &ir.Arg{Name: "p", Ty: ir.Ptr}, &ir.Arg{Name: "c", Ty: ir.I1})
		for range skipIDs {
			fn.AllocID()
		}
		a := b.Alloca(64, "a")
		bld(m, fn, b, a)
		if got := IsNonCaptured(a); got != want {
			t.Errorf("IsNonCaptured = %t, want %t", got, want)
		}
		if got := isNonCapturedRef(a); got != want {
			t.Errorf("reference = %t, want %t", got, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { run(t, 0, tc.build, tc.nonCaptured) })
		// Past the on-stack bitset, the set lives on the heap.
		t.Run(tc.name+" past the stack bitset", func(t *testing.T) {
			run(t, 64*captureStackWords, tc.build, tc.nonCaptured)
		})
	}
}

func TestResultStringAndDefinitive(t *testing.T) {
	if NoAlias.String() != "no-alias" || MayAlias.String() != "may-alias" ||
		MustAlias.String() != "must-alias" || PartialAlias.String() != "partial-alias" {
		t.Error("result strings")
	}
	if MayAlias.Definitive() || !NoAlias.Definitive() || !MustAlias.Definitive() {
		t.Error("definitiveness")
	}
}
