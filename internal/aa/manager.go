package aa

import (
	"sort"
	"strings"

	"github.com/oraql/go-oraql/internal/ir"
)

// Stats aggregates query outcomes over one compilation, broken down by
// analysis and by requesting pass. The totals feed the Fig. 4 columns
// ("# No-Alias Results", original vs ORAQL).
//
// Manager.Stats returns a deep copy of the manager's accumulator, so a
// snapshot outlives its compilation and can be read and Merge'd on any
// goroutine.
type Stats struct {
	Queries      int64 `json:"queries"`
	NoAlias      int64 `json:"no_alias"`
	MustAlias    int64 `json:"must_alias"`
	PartialAlias int64 `json:"partial_alias"`
	MayAlias     int64 `json:"may_alias"`

	// CacheHits / CacheMisses count lookups in the manager's memoized
	// query cache (the AAQueryInfo analogue). Blocked queries bypass the
	// cache and count in neither.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheScopedFlushes counts the per-function invalidations that
	// dropped entries: the analysis manager issues one for each function
	// a pass changed, leaving every other function's entries intact.
	CacheScopedFlushes int64 `json:"cache_scoped_flushes"`

	// NoAliasByAnalysis counts definitive no-alias answers per analysis
	// in the chain (including "oraql" when present).
	NoAliasByAnalysis map[string]int64 `json:"no_alias_by_analysis"`

	// QueriesByPass counts queries per requesting pass.
	QueriesByPass map[string]int64 `json:"queries_by_pass"`
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{NoAliasByAnalysis: map[string]int64{}, QueriesByPass: map[string]int64{}}
}

// Clone returns a deep copy of the statistics.
func (s *Stats) Clone() *Stats {
	out := NewStats()
	out.Merge(s)
	return out
}

// Merge adds other's counters into s, so per-compilation snapshots from
// concurrent compiles can be aggregated into suite-wide totals.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.Queries += other.Queries
	s.NoAlias += other.NoAlias
	s.MustAlias += other.MustAlias
	s.PartialAlias += other.PartialAlias
	s.MayAlias += other.MayAlias
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.CacheScopedFlushes += other.CacheScopedFlushes
	for k, v := range other.NoAliasByAnalysis {
		s.NoAliasByAnalysis[k] += v
	}
	for k, v := range other.QueriesByPass {
		s.QueriesByPass[k] += v
	}
}

// CacheLookups is the total memoized-query-cache traffic (hits plus
// misses); the serving layer exports it beside the hit counter so a
// rate can be derived from two monotonic series.
func (s *Stats) CacheLookups() int64 { return s.CacheHits + s.CacheMisses }

// CacheHitRate returns the fraction of cache lookups served from the
// memoized query cache, in [0, 1].
func (s *Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Analyses returns the analysis names with no-alias counts, sorted.
func (s *Stats) Analyses() []string {
	names := make([]string, 0, len(s.NoAliasByAnalysis))
	for n := range s.NoAliasByAnalysis {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Blocker can suppress the analysis chain for selected queries,
// forcing the pessimistic may-alias fallback. This implements the
// paper's Section VIII future-work design: "effectively block existing
// analyses and provide more pessimistic results in order to determine
// the effect on subsequent passes and performance".
type Blocker interface {
	// Block reports whether the chain should be skipped for this query.
	Block(a, b MemLoc, q *QueryCtx) bool
}

// Uncacheable is implemented by analyses whose answers must not be
// memoized by the manager's query cache. The ORAQL responder is the
// canonical case: its replies consume the response sequence and are
// counted by its own pair cache, so the manager must forward every
// repeated query to it. Analyses that do not implement the interface
// (or return false) are treated as pure functions of the IR and are
// safe to memoize.
type Uncacheable interface {
	UncacheableAlias() bool
}

// sideKey is the comparable identity of one MemLoc for cache keying:
// the pointer's stable VID plus the location description and access
// metadata that the analyses consume.
type sideKey struct {
	vid          int64
	size         LocationSize
	tbaa         string
	scopes       string
	noAliasScope string
}

func sideKeyOf(l MemLoc) sideKey {
	return sideKey{
		vid:          l.Ptr.VID(),
		size:         l.Size,
		tbaa:         l.TBAA,
		scopes:       strings.Join(l.Scopes, "\x1f"),
		noAliasScope: strings.Join(l.NoAliasScope, "\x1f"),
	}
}

// less orders side keys canonically so that symmetric queries share one
// cache entry.
func (k sideKey) less(o sideKey) bool {
	if k.vid != o.vid {
		return k.vid < o.vid
	}
	if k.size != o.size {
		if k.size.Known != o.size.Known {
			return !k.size.Known
		}
		return k.size.Bytes < o.size.Bytes
	}
	if k.tbaa != o.tbaa {
		return k.tbaa < o.tbaa
	}
	if k.scopes != o.scopes {
		return k.scopes < o.scopes
	}
	return k.noAliasScope < o.noAliasScope
}

// queryKey is the symmetric-normalized (MemLoc, MemLoc) cache key:
// alias relations are symmetric, so Alias(a, b) and Alias(b, a) hit the
// same entry.
type queryKey struct{ a, b sideKey }

func queryKeyOf(a, b MemLoc) queryKey {
	ka, kb := sideKeyOf(a), sideKeyOf(b)
	if kb.less(ka) {
		ka, kb = kb, ka
	}
	return queryKey{ka, kb}
}

// cacheEntry is a memoized chain verdict: the first definitive answer
// produced by the cacheable chain prefix and the analysis that gave it,
// or MayAlias with an empty name when the whole prefix was exhausted.
type cacheEntry struct {
	result   Result
	analysis string
}

// Manager is the alias-analysis chain. Queries walk the chain in order
// and stop at the first definitive answer; if every analysis says
// may-alias, the manager returns may-alias — exactly the LLVM
// AAResults aggregation the paper describes in Section III.
//
// The manager memoizes chain verdicts in an AAQueryInfo-style query
// cache keyed on the symmetric-normalized location pair: passes like
// GVN, DSE and LICM issue the same query hundreds of times per
// function, and a hit skips the whole cacheable chain prefix. Analyses
// implementing Uncacheable (the ORAQL responder) are consulted on
// every query regardless, so their counters and sequence consumption
// are unaffected by memoization. The analysis manager calls
// InvalidateFunc for each function a pass changed; within one pass
// execution the cache keeps LLVM's batch semantics (stale entries can
// only be conservative, since transformations never make disjoint live
// pointers overlap).
//
// Cache entries are bucketed by the querying function (QueryCtx.Func),
// because alias queries are intra-function: both locations name values
// of that function, or globals whose chain-level facts were computed
// once at manager construction. A pass mutating function f therefore
// cannot stale another function's verdicts, and InvalidateFunc(f)
// drops only f's bucket. Queries without a function context land in a
// shared nil bucket that every scoped flush also drops.
//
// Like LLVM's AAResults, a Manager belongs to one compilation, which
// runs on one goroutine; it is not safe for concurrent use.
type Manager struct {
	Module *ir.Module
	chain  []Analysis

	// Blocker, when non-nil, is consulted before the chain.
	Blocker Blocker

	memoOff bool
	stats   *Stats
	cache   map[*ir.Func]map[queryKey]cacheEntry
}

// NewManager returns a manager over m with the given chain, queried in
// order.
func NewManager(m *ir.Module, chain ...Analysis) *Manager {
	return &Manager{Module: m, chain: chain, stats: NewStats(),
		cache: map[*ir.Func]map[queryKey]cacheEntry{}}
}

// DefaultChain builds the analyses enabled in the default -O3 pipeline,
// mirroring LLVM's defaults: Basic, ScopedNoAlias, TypeBased, ArgAttr,
// Globals. The CFL analyses exist but are off by default because of
// their scaling behaviour (paper Section I); use FullChain to enable
// them. Append the ORAQL pass after whichever chain is chosen. Both
// are thin wrappers over the registered "default"/"full" chain orders
// (registry.go); ChainByName resolves arbitrary registered names and
// custom comma lists.
func DefaultChain(m *ir.Module) []Analysis {
	return buildChain(m, defaultChainNames)
}

// FullChain is DefaultChain plus the two CFL points-to analyses
// (Andersen, Steensgaard), i.e. all seven analyses the paper lists for
// LLVM 14.
func FullChain(m *ir.Module) []Analysis {
	return buildChain(m, fullChainNames)
}

// Append adds an analysis at the end of the chain (used to install the
// ORAQL pass last, per paper Section IV-A).
func (mgr *Manager) Append(a Analysis) { mgr.chain = append(mgr.chain, a) }

// Chain returns the analyses in query order.
func (mgr *Manager) Chain() []Analysis { return mgr.chain }

// Stats returns a snapshot of the accumulated query statistics.
func (mgr *Manager) Stats() *Stats { return mgr.stats.Clone() }

// SetQueryCache enables or disables the memoized query cache (enabled
// by default); disabling flushes it. Used by the cache-ablation
// benchmarks.
func (mgr *Manager) SetQueryCache(enabled bool) {
	mgr.memoOff = !enabled
	if !enabled {
		clear(mgr.cache)
	}
}

// InvalidateFunc empties the memoized verdicts of one function — the
// analysis manager calls this for exactly the function a pass changed,
// leaving every other function's entries hot. The shared nil bucket
// (queries without a function context) is emptied too, since those
// cannot be attributed. Buckets are emptied in place, so the next pass
// refills one without regrowing it. The flush counter reflects only
// the function's own bucket.
func (mgr *Manager) InvalidateFunc(fn *ir.Func) {
	if len(mgr.cache[fn]) > 0 {
		mgr.stats.CacheScopedFlushes++
	}
	clear(mgr.cache[fn])
	clear(mgr.cache[nil])
}

// cachePrefixLen returns the length of the chain prefix whose answers
// may be memoized: everything before the first Uncacheable analysis.
func (mgr *Manager) cachePrefixLen() int {
	for i, an := range mgr.chain {
		if u, ok := an.(Uncacheable); ok && u.UncacheableAlias() {
			return i
		}
	}
	return len(mgr.chain)
}

// book records a query's attribution and outcome; Alias counts its
// cache traffic.
func (mgr *Manager) book(q *QueryCtx, r Result, analysis string) {
	st := mgr.stats
	st.Queries++
	if q != nil && q.Pass != "" {
		st.QueriesByPass[q.Pass]++
	}
	switch r {
	case NoAlias:
		st.NoAlias++
		st.NoAliasByAnalysis[analysis]++
	case MustAlias:
		st.MustAlias++
	case PartialAlias:
		st.PartialAlias++
	default:
		st.MayAlias++
	}
}

// walk consults chain[from:to] in order and returns the first
// definitive answer with the producing analysis, or (MayAlias, "").
func (mgr *Manager) walk(from, to int, a, b MemLoc, q *QueryCtx) (Result, string) {
	for _, an := range mgr.chain[from:to] {
		if r := an.Alias(a, b, q); r.Definitive() {
			return r, an.Name()
		}
	}
	return MayAlias, ""
}

// Alias answers an alias query by walking the chain, serving the
// cacheable prefix from the issuing function's cache bucket when
// possible.
func (mgr *Manager) Alias(a, b MemLoc, q *QueryCtx) Result {
	if mgr.Blocker != nil && mgr.Blocker.Block(a, b, q) {
		mgr.book(q, MayAlias, "")
		return MayAlias
	}
	prefix := mgr.cachePrefixLen()
	if mgr.memoOff || prefix == 0 {
		r, name := mgr.walk(0, len(mgr.chain), a, b, q)
		mgr.book(q, r, name)
		return r
	}

	var fn *ir.Func
	if q != nil {
		fn = q.Func
	}
	bucket := mgr.cache[fn]
	key := queryKeyOf(a, b)
	ent, hit := bucket[key]
	if hit {
		mgr.stats.CacheHits++
	} else {
		mgr.stats.CacheMisses++
		ent.result, ent.analysis = mgr.walk(0, prefix, a, b, q)
		if bucket == nil {
			bucket = map[queryKey]cacheEntry{}
			mgr.cache[fn] = bucket
		}
		bucket[key] = ent
	}
	r, name := ent.result, ent.analysis
	if !r.Definitive() {
		// The cacheable prefix is inconclusive: consult only the
		// uncacheable tail (e.g. the ORAQL responder).
		r, name = mgr.walk(prefix, len(mgr.chain), a, b, q)
	}
	mgr.book(q, r, name)
	return r
}

// NoAliasLocs reports whether two locations are proven disjoint.
func (mgr *Manager) NoAliasLocs(a, b MemLoc, q *QueryCtx) bool {
	return mgr.Alias(a, b, q) == NoAlias
}

// InstrMayClobberLoc reports whether instruction in may write a
// location. It issues one query per written location of in.
func (mgr *Manager) InstrMayClobberLoc(in *ir.Instr, loc MemLoc, q *QueryCtx) bool {
	if !in.WritesMemory() {
		return false
	}
	if in.Op == ir.OpStore {
		return mgr.Alias(loc, LocOfStore(in), q) != NoAlias
	}
	var buf [4]MemLoc
	return mgr.mayAccess(in, loc, AppendWriteLocs(buf[:0], in), q)
}

// InstrMayReadLoc reports whether in may read from loc.
func (mgr *Manager) InstrMayReadLoc(in *ir.Instr, loc MemLoc, q *QueryCtx) bool {
	if !in.ReadsMemory() {
		return false
	}
	if in.Op == ir.OpLoad {
		return mgr.Alias(loc, LocOfLoad(in), q) != NoAlias
	}
	var buf [4]MemLoc
	return mgr.mayAccess(in, loc, AppendReadLocs(buf[:0], in), q)
}

// mayAccess reports whether in, which accesses memory through locs,
// may touch loc.
func (mgr *Manager) mayAccess(in *ir.Instr, loc MemLoc, locs []MemLoc, q *QueryCtx) bool {
	if len(locs) == 0 {
		// Accesses memory but through no identifiable pointer (e.g.
		// an unknown call): conservatively it does.
		return true
	}
	if in.Op == ir.OpCall && !ir.CalleeEffects(in.Callee).ArgMemOnly {
		// A user call may access memory through any captured pointer,
		// not only its arguments; still issue the per-argument queries
		// so the query stream matches LLVM's, then stay conservative.
		for _, l := range locs {
			mgr.Alias(loc, l, q)
		}
		return true
	}
	for _, l := range locs {
		if mgr.Alias(loc, l, q) != NoAlias {
			return true
		}
	}
	return false
}
