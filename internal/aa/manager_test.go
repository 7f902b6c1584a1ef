package aa

import (
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

func TestInstrMayClobberLoc(t *testing.T) {
	f := newFixture(t)
	st := f.b.Store(ir.ConstInt(1), f.a1, "")
	ld := f.b.Load(ir.I64, f.a1, "")
	call := f.b.Call(ir.Void, "__print_i64", ld)
	userCall := f.b.Call(ir.Void, "f", f.p) // self-recursive: unknown effects
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	a1Loc := f.loc(f.a1, 8)
	a2Loc := f.loc(f.a2, 8)
	if !mgr.InstrMayClobberLoc(st, a1Loc, nil) {
		t.Error("store to a1 clobbers a1")
	}
	if mgr.InstrMayClobberLoc(st, a2Loc, nil) {
		t.Error("store to a1 cannot clobber a2")
	}
	if mgr.InstrMayClobberLoc(ld, a1Loc, nil) {
		t.Error("loads never clobber")
	}
	if mgr.InstrMayClobberLoc(call, a1Loc, nil) {
		t.Error("print intrinsics never clobber")
	}
	if !mgr.InstrMayClobberLoc(userCall, f.loc(f.p, 8), nil) {
		t.Error("unknown user calls clobber conservatively")
	}
}

func TestInstrMayReadLoc(t *testing.T) {
	f := newFixture(t)
	ld := f.b.Load(ir.I64, f.a1, "")
	cs := f.b.Call(ir.F64, "__checksum_f64", f.a2, ir.ConstInt(2))
	f.b.Ret(nil)
	_ = ld
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	if !mgr.InstrMayReadLoc(ld, f.loc(f.a1, 8), nil) {
		t.Error("load reads its own location")
	}
	if mgr.InstrMayReadLoc(ld, f.loc(f.a2, 8), nil) {
		t.Error("load of a1 does not read a2")
	}
	// checksum is argmemonly: reads a2 but not a1.
	if !mgr.InstrMayReadLoc(cs, f.loc(f.a2, 8), nil) {
		t.Error("checksum reads its buffer")
	}
	if mgr.InstrMayReadLoc(cs, f.loc(f.a1, 8), nil) {
		t.Error("argmemonly call must not read unrelated allocas")
	}
}

func TestFullChainAnswersMore(t *testing.T) {
	// Two distinct mallocs stored through a struct slot: the default
	// chain cannot separate the loaded pointers, the CFL analyses can.
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "f", ir.Void)
	s1 := b.Alloca(8, "s1")
	s2 := b.Alloca(8, "s2")
	o1 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	o2 := b.Call(ir.Ptr, "__malloc", ir.ConstInt(64))
	b.Store(o1, s1, "")
	b.Store(o2, s2, "")
	l1 := b.Load(ir.Ptr, s1, "")
	l2 := b.Load(ir.Ptr, s2, "")
	b.Ret(nil)
	locA := MemLoc{Ptr: l1, Size: PreciseSize(8)}
	locB := MemLoc{Ptr: l2, Size: PreciseSize(8)}
	def := NewManager(m, DefaultChain(m)...)
	if r := def.Alias(locA, locB, nil); r != MayAlias {
		t.Errorf("default chain should fail here, got %v", r)
	}
	full := NewManager(m, FullChain(m)...)
	if r := full.Alias(locA, locB, nil); r != NoAlias {
		t.Errorf("CFL analyses should separate the mallocs, got %v", r)
	}
}

func TestBlockerShortCircuitsChain(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	mgr.Blocker = blockAll{}
	// Even trivially-disjoint allocas become may-alias when blocked.
	if r := mgr.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), nil); r != MayAlias {
		t.Errorf("blocked query = %v", r)
	}
	if mgr.Stats().NoAlias != 0 || mgr.Stats().MayAlias != 1 {
		t.Errorf("stats: %+v", mgr.Stats())
	}
}

type blockAll struct{}

func (blockAll) Block(a, b MemLoc, q *QueryCtx) bool { return true }

func TestStatsAnalysesSorted(t *testing.T) {
	f := newFixture(t)
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	mgr.Alias(f.loc(f.a1, 8), f.loc(f.a2, 8), nil)
	mgr.Alias(f.loc(f.q, 8), f.loc(f.a1, 8), nil)
	names := mgr.Stats().Analyses()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("analyses not sorted: %v", names)
		}
	}
}

// countingAA is a fake analysis that records how often it is consulted
// and always answers the configured result.
type countingAA struct {
	name    string
	answer  Result
	queries int
}

func (c *countingAA) Name() string { return c.name }
func (c *countingAA) Alias(a, b MemLoc, q *QueryCtx) Result {
	c.queries++
	return c.answer
}

// TestEveryQueryWalksTheChain: the manager memoizes nothing, so a
// repeated query and its operand-swapped twin each consult the chain
// again, and each is booked with its answering analysis.
func TestEveryQueryWalksTheChain(t *testing.T) {
	f := newFixture(t)
	pre := &countingAA{name: "pre", answer: MayAlias}
	last := &countingAA{name: "last", answer: NoAlias}
	mgr := NewManager(f.m, pre, last)
	l1, l2 := f.loc(f.p, 8), f.loc(f.q, 8)
	q := &QueryCtx{Pass: "test", Func: f.fn}

	const n = 4
	for i := 0; i < n; i++ {
		if r := mgr.Alias(l1, l2, q); r != NoAlias {
			t.Fatalf("query %d: got %v, want NoAlias", i, r)
		}
		if r := mgr.Alias(l2, l1, q); r != NoAlias {
			t.Fatalf("swapped query %d: got %v, want NoAlias", i, r)
		}
	}
	if pre.queries != 2*n || last.queries != 2*n {
		t.Errorf("chain consulted %d/%d times, want %d/%d", pre.queries, last.queries, 2*n, 2*n)
	}
	s := mgr.Stats()
	if s.Queries != 2*n || s.NoAlias != 2*n || s.NoAliasByAnalysis["last"] != 2*n {
		t.Errorf("Queries/NoAlias/last = %d/%d/%d, want %d each",
			s.Queries, s.NoAlias, s.NoAliasByAnalysis["last"], 2*n)
	}
}

func TestStatsMergeAndClone(t *testing.T) {
	a := NewStats()
	a.Queries, a.NoAlias = 3, 2
	a.NoAliasByAnalysis["basic-aa"] = 2
	a.QueriesByPass["GVN"] = 3

	b := NewStats()
	b.Queries, b.MayAlias = 2, 2
	b.NoAliasByAnalysis["tbaa"] = 1
	b.QueriesByPass["GVN"] = 2

	sum := a.Clone()
	sum.Merge(b)
	if sum.Queries != 5 || sum.NoAlias != 2 || sum.MayAlias != 2 {
		t.Errorf("merged outcome counters wrong: %+v", sum)
	}
	if sum.QueriesByPass["GVN"] != 5 || sum.NoAliasByAnalysis["basic-aa"] != 2 || sum.NoAliasByAnalysis["tbaa"] != 1 {
		t.Errorf("merged maps wrong: %+v", sum)
	}
	// Clone must be deep: mutating the clone leaves the original alone.
	if a.QueriesByPass["GVN"] != 3 {
		t.Errorf("Clone aliased the source maps")
	}
}

// TestRepeatedAccessQueriesAllocateNothing: a clobber or read query
// builds its access locations on the stack, so walking the default
// chain for it allocates nothing.
func TestRepeatedAccessQueriesAllocateNothing(t *testing.T) {
	f := newFixture(t)
	ld := f.b.Load(ir.F64, f.p, "double")
	st := f.b.Store(ld, f.q, "double")
	cp := f.b.MemCpy(f.a1, f.a2, ir.ConstInt(16))
	ms := f.b.MemSet(f.a2, ir.ConstInt(0), ir.ConstInt(16))
	call := f.b.Call(ir.Void, "user", f.p, f.a1, f.idx)
	f.b.Ret(nil)
	mgr := NewManager(f.m, DefaultChain(f.m)...)
	q := &QueryCtx{Pass: "test", Func: f.fn}
	loc := f.loc(f.a1, 8)
	query := func() {
		for _, in := range []*ir.Instr{ld, st, cp, ms, call} {
			mgr.InstrMayClobberLoc(in, loc, q)
			mgr.InstrMayReadLoc(in, loc, q)
		}
	}
	query()
	if got := testing.AllocsPerRun(100, query); got != 0 {
		t.Errorf("access queries: %v allocations per run, want 0", got)
	}
}
