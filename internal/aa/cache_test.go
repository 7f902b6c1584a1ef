package aa

// Tests for the manager's memoized alias-query cache (the AAQueryInfo
// analogue): hit/miss accounting, symmetric key normalization,
// invalidation, and the Uncacheable opt-out used by the ORAQL pass.

import (
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

// countingAA is a memoizable fake analysis that records how often it is
// consulted and always answers the configured result.
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

// uncacheableAA is a countingAA that opts out of memoization, like the
// ORAQL responder.
type uncacheableAA struct{ countingAA }

func (*uncacheableAA) UncacheableAlias() bool { return true }

func TestQueryCacheHitMissCounting(t *testing.T) {
	f := newFixture(t)
	mgr := NewManager(f.m, NewBasicAA())
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	if r := mgr.Alias(l1, l2, nil); r != NoAlias {
		t.Fatalf("distinct allocas: got %v, want NoAlias", r)
	}
	for i := 0; i < 3; i++ {
		if r := mgr.Alias(l1, l2, nil); r != NoAlias {
			t.Fatalf("repeat %d: got %v, want NoAlias", i, r)
		}
	}
	s := mgr.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 3 {
		t.Errorf("got %d misses / %d hits, want 1 / 3", s.CacheMisses, s.CacheHits)
	}
	if got := s.CacheHitRate(); got != 0.75 {
		t.Errorf("CacheHitRate = %v, want 0.75", got)
	}
	// Hits must preserve the per-analysis no-alias attribution.
	if got := s.NoAliasByAnalysis["basic-aa"]; got != 4 {
		t.Errorf("basic-aa no-alias attribution = %d, want 4", got)
	}
	if s.NoAlias != 4 || s.Queries != 4 {
		t.Errorf("NoAlias/Queries = %d/%d, want 4/4", s.NoAlias, s.Queries)
	}
}

func TestQueryCacheSymmetricKey(t *testing.T) {
	f := newFixture(t)
	mgr := NewManager(f.m, NewBasicAA())
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	r1 := mgr.Alias(l1, l2, nil)
	r2 := mgr.Alias(l2, l1, nil)
	if r1 != r2 {
		t.Fatalf("Alias(a,b)=%v != Alias(b,a)=%v", r1, r2)
	}
	s := mgr.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Errorf("swapped operands: got %d misses / %d hits, want one shared entry (1 / 1)",
			s.CacheMisses, s.CacheHits)
	}
}

// TestQueryCacheScopedInvalidate: InvalidateFunc must drop only the
// changed function's bucket, leaving other functions' verdicts hot.
func TestQueryCacheScopedInvalidate(t *testing.T) {
	f := newFixture(t)
	mgr := NewManager(f.m, NewBasicAA())
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	other, ob := ir.NewFunc(f.m, "other", ir.Void)
	ob.Ret(nil)
	qf := &QueryCtx{Pass: "test", Func: f.fn}
	qo := &QueryCtx{Pass: "test", Func: other}

	mgr.Alias(l1, l2, qf)
	mgr.Alias(l1, l2, qo)
	// Scoped flush of f.fn: its entry re-misses, other's entry hits.
	mgr.InvalidateFunc(f.fn)
	mgr.Alias(l1, l2, qf)
	mgr.Alias(l1, l2, qo)
	s := mgr.Stats()
	if s.CacheMisses != 3 || s.CacheHits != 1 {
		t.Errorf("got %d misses / %d hits, want 3 / 1 (scoped flush)", s.CacheMisses, s.CacheHits)
	}
	if s.CacheScopedFlushes != 1 {
		t.Errorf("CacheScopedFlushes = %d, want 1", s.CacheScopedFlushes)
	}
	// Scoped flush of a function with no entries is not a flush.
	mgr.InvalidateFunc(f.fn)
	mgr.InvalidateFunc(f.fn)
	if s := mgr.Stats(); s.CacheScopedFlushes != 2 {
		t.Errorf("CacheScopedFlushes = %d, want 2 (second empty flush uncounted)", s.CacheScopedFlushes)
	}
}

// TestQueryCacheNilBucketFlushedScoped: entries from queries without a
// function context cannot be attributed, so every scoped flush drops
// them too.
func TestQueryCacheNilBucketFlushedScoped(t *testing.T) {
	f := newFixture(t)
	mgr := NewManager(f.m, NewBasicAA())
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	mgr.Alias(l1, l2, nil)
	mgr.InvalidateFunc(f.fn)
	mgr.Alias(l1, l2, nil)
	if s := mgr.Stats(); s.CacheMisses != 2 || s.CacheHits != 0 {
		t.Errorf("got %d misses / %d hits, want 2 / 0 (nil bucket dropped)", s.CacheMisses, s.CacheHits)
	}
}

func TestQueryCacheUncacheableTail(t *testing.T) {
	f := newFixture(t)
	pre := &countingAA{name: "pre", answer: MayAlias}
	tail := &uncacheableAA{countingAA{name: "oraql-fake", answer: NoAlias}}
	mgr := NewManager(f.m, pre, tail)
	l1, l2 := f.loc(f.p, 8), f.loc(f.q, 8)

	const n = 4
	for i := 0; i < n; i++ {
		if r := mgr.Alias(l1, l2, nil); r != NoAlias {
			t.Fatalf("query %d: got %v, want NoAlias from tail", i, r)
		}
	}
	// The inconclusive prefix is memoized after the first query; the
	// uncacheable tail answers every query itself.
	if pre.queries != 1 {
		t.Errorf("cacheable prefix consulted %d times, want 1", pre.queries)
	}
	if tail.queries != n {
		t.Errorf("uncacheable tail consulted %d times, want %d", tail.queries, n)
	}
	s := mgr.Stats()
	if got := s.NoAliasByAnalysis["oraql-fake"]; got != n {
		t.Errorf("tail no-alias attribution = %d, want %d", got, n)
	}
}

func TestQueryCacheUncacheableFirstDisablesMemo(t *testing.T) {
	f := newFixture(t)
	tail := &uncacheableAA{countingAA{name: "oraql-fake", answer: MayAlias}}
	post := &countingAA{name: "post", answer: NoAlias}
	mgr := NewManager(f.m, tail, post)
	l1, l2 := f.loc(f.p, 8), f.loc(f.q, 8)

	mgr.Alias(l1, l2, nil)
	mgr.Alias(l1, l2, nil)
	// With an uncacheable analysis first there is no cacheable prefix:
	// every analysis runs on every query and the cache stays untouched.
	if tail.queries != 2 || post.queries != 2 {
		t.Errorf("consulted %d/%d times, want 2/2", tail.queries, post.queries)
	}
	s := mgr.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("cache counters %d hits / %d misses, want untouched", s.CacheHits, s.CacheMisses)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	f := newFixture(t)
	pre := &countingAA{name: "pre", answer: NoAlias}
	mgr := NewManager(f.m, pre)
	mgr.SetQueryCache(false)
	l1, l2 := f.loc(f.a1, 8), f.loc(f.a2, 8)

	mgr.Alias(l1, l2, nil)
	mgr.Alias(l1, l2, nil)
	if pre.queries != 2 {
		t.Errorf("with cache disabled analysis consulted %d times, want 2", pre.queries)
	}
	s := mgr.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("cache counters %d hits / %d misses, want 0 / 0", s.CacheHits, s.CacheMisses)
	}
}

func TestQueryCacheDistinguishesSizeAndMetadata(t *testing.T) {
	f := newFixture(t)
	pre := &countingAA{name: "pre", answer: MayAlias}
	mgr := NewManager(f.m, pre)

	mgr.Alias(f.loc(f.p, 8), f.loc(f.q, 8), nil)
	mgr.Alias(f.loc(f.p, 4), f.loc(f.q, 8), nil) // different size
	mgr.Alias(MemLoc{Ptr: f.p, Size: PreciseSize(8), TBAA: "int"}, f.loc(f.q, 8), nil)
	mgr.Alias(MemLoc{Ptr: f.p, Size: PreciseSize(8), Scopes: []string{"s1"}}, f.loc(f.q, 8), nil)
	s := mgr.Stats()
	if s.CacheMisses != 4 || s.CacheHits != 0 {
		t.Errorf("got %d misses / %d hits, want 4 distinct entries", s.CacheMisses, s.CacheHits)
	}
}

func TestStatsMergeAndClone(t *testing.T) {
	a := NewStats()
	a.Queries, a.NoAlias, a.CacheHits = 3, 2, 1
	a.NoAliasByAnalysis["basic-aa"] = 2
	a.QueriesByPass["GVN"] = 3

	b := NewStats()
	b.Queries, b.MayAlias, b.CacheMisses, b.CacheScopedFlushes = 2, 2, 2, 1
	b.NoAliasByAnalysis["tbaa"] = 1
	b.QueriesByPass["GVN"] = 2

	sum := a.Clone()
	sum.Merge(b)
	if sum.Queries != 5 || sum.NoAlias != 2 || sum.MayAlias != 2 {
		t.Errorf("merged outcome counters wrong: %+v", sum)
	}
	if sum.CacheHits != 1 || sum.CacheMisses != 2 || sum.CacheScopedFlushes != 1 {
		t.Errorf("merged cache counters wrong: %+v", sum)
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
// that the cache answers builds its access locations on the stack, so
// it allocates nothing.
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
	before := mgr.Stats()
	if got := testing.AllocsPerRun(100, query); got != 0 {
		t.Errorf("cache-hit access queries: %v allocations per run, want 0", got)
	}
	after := mgr.Stats()
	if after.CacheMisses != before.CacheMisses || after.CacheHits == before.CacheHits {
		t.Fatalf("repeats must hit the cache: misses %d -> %d, hits %d -> %d",
			before.CacheMisses, after.CacheMisses, before.CacheHits, after.CacheHits)
	}
}
