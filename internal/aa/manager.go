package aa

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/ir"
)

// Stats aggregates query outcomes over one compilation, broken down by
// analysis and by requesting pass. The totals feed the Fig. 4 columns
// ("# No-Alias Results", original vs ORAQL).
//
// A Stats value is an immutable snapshot: Manager.Stats returns a deep
// copy of the accumulator it guards internally, so snapshots of
// compilations on different goroutines (service jobs, speculative
// probe tests) can be read and Merge'd freely without additional
// locking.
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
	// CacheFlushes counts module-wide invalidations that actually
	// dropped entries; CacheScopedFlushes counts the per-function
	// invalidations the analysis manager issues for the one function a
	// pass changed, which leave every other function's entries intact.
	CacheFlushes       int64 `json:"cache_flushes"`
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
	s.CacheFlushes += other.CacheFlushes
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
// are unaffected by memoization. The pass manager calls Invalidate
// between pass executions once a pass mutates the module; within one
// pass execution the cache keeps LLVM's batch semantics (stale entries
// can only be conservative, since transformations never make disjoint
// live pointers overlap).
//
// Manager is safe for concurrent queries; note however that the ORAQL
// pass appended during probing keeps its own unsynchronized state, so
// probing compilations use one manager per compilation.
//
// Cache entries are bucketed by the querying function (QueryCtx.Func),
// because alias queries are intra-function: both locations name values
// of that function, or globals whose chain-level facts were computed
// once at manager construction. A pass mutating function f therefore
// cannot stale another function's verdicts, and InvalidateFunc(f)
// drops only f's bucket. Queries without a function context land in a
// shared nil bucket that every scoped flush also drops.
//
// State is sharded by that same bucketing: each function owns a shard
// holding its cache bucket and its statistics, guarded by its own
// mutex, so a scoped flush touches one shard and Stats() merges the
// shard snapshots. All counters of one query are booked in a single
// critical section, so a snapshot taken while queries are in flight
// can never observe a query whose outcome is missing (no torn reads).
type Manager struct {
	Module *ir.Module
	chain  []Analysis

	// Blocker, when non-nil, is consulted before the chain.
	Blocker Blocker

	memoOff atomic.Bool

	// shardMu guards the shards map itself; the shards it holds are
	// never removed, so a looked-up shard stays valid without it.
	shardMu sync.RWMutex
	shards  map[*ir.Func]*shard
}

// shard is the per-function slice of the manager's mutable state: the
// memoized cache bucket and the statistics of queries issued from that
// function. fn == nil (queries without a function context) has a shard
// of its own.
type shard struct {
	mu    sync.Mutex
	stats *Stats
	cache map[queryKey]cacheEntry
}

func newShard() *shard {
	return &shard{stats: NewStats(), cache: map[queryKey]cacheEntry{}}
}

// NewManager returns a manager over m with the given chain, queried in
// order. Shards for m's functions (and the nil bucket) are created
// eagerly so the common query path is a read-lock map hit.
func NewManager(m *ir.Module, chain ...Analysis) *Manager {
	mgr := &Manager{
		Module: m,
		chain:  chain,
		shards: map[*ir.Func]*shard{nil: newShard()},
	}
	if m != nil {
		for _, fn := range m.Funcs {
			mgr.shards[fn] = newShard()
		}
	}
	return mgr
}

// shardFor returns fn's shard, creating it for functions that did not
// exist when the manager was built.
func (mgr *Manager) shardFor(fn *ir.Func) *shard {
	mgr.shardMu.RLock()
	s := mgr.shards[fn]
	mgr.shardMu.RUnlock()
	if s != nil {
		return s
	}
	mgr.shardMu.Lock()
	defer mgr.shardMu.Unlock()
	if s = mgr.shards[fn]; s == nil {
		s = newShard()
		mgr.shards[fn] = s
	}
	return s
}

// allShards snapshots the shard list.
func (mgr *Manager) allShards() []*shard {
	mgr.shardMu.RLock()
	defer mgr.shardMu.RUnlock()
	out := make([]*shard, 0, len(mgr.shards))
	for _, s := range mgr.shards {
		out = append(out, s)
	}
	return out
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

// Stats returns a snapshot of the accumulated query statistics, merged
// over all shards. Each shard is snapshotted under its own lock, and
// every shard books all counters of a query atomically, so the merged
// snapshot always satisfies the per-query invariants (every counted
// query has a counted outcome, every cacheable query a counted
// hit-or-miss) even while queries are in flight.
func (mgr *Manager) Stats() *Stats {
	out := NewStats()
	for _, s := range mgr.allShards() {
		s.mu.Lock()
		out.Merge(s.stats)
		s.mu.Unlock()
	}
	return out
}

// SetQueryCache enables or disables the memoized query cache (enabled
// by default); disabling flushes it. Used by the cache-ablation
// benchmarks.
func (mgr *Manager) SetQueryCache(enabled bool) {
	mgr.memoOff.Store(!enabled)
	if !enabled {
		for _, s := range mgr.allShards() {
			s.mu.Lock()
			s.cache = map[queryKey]cacheEntry{}
			s.mu.Unlock()
		}
	}
}

// Invalidate flushes the entire memoized query cache across all
// functions — the module-wide AAQueryInfo drop. The pass pipeline now
// prefers the scoped InvalidateFunc; the full flush remains for
// callers without a function context.
func (mgr *Manager) Invalidate() {
	dropped := 0
	shards := mgr.allShards()
	for _, s := range shards {
		s.mu.Lock()
		if len(s.cache) > 0 {
			dropped += len(s.cache)
			s.cache = map[queryKey]cacheEntry{}
		}
		s.mu.Unlock()
	}
	if dropped > 0 {
		nilShard := mgr.shardFor(nil)
		nilShard.mu.Lock()
		nilShard.stats.CacheFlushes++
		nilShard.mu.Unlock()
	}
}

// InvalidateFunc drops the memoized verdicts of one function — the
// analysis manager calls this for exactly the function a pass changed,
// leaving every other function's entries hot. The shared nil bucket
// (queries without a function context) is dropped too, since those
// cannot be attributed. The flush counter reflects only the function's
// own bucket.
func (mgr *Manager) InvalidateFunc(fn *ir.Func) {
	s := mgr.shardFor(fn)
	s.mu.Lock()
	if len(s.cache) > 0 {
		s.cache = map[queryKey]cacheEntry{}
		s.stats.CacheScopedFlushes++
	}
	s.mu.Unlock()
	if fn != nil {
		nilShard := mgr.shardFor(nil)
		nilShard.mu.Lock()
		if len(nilShard.cache) > 0 {
			nilShard.cache = map[queryKey]cacheEntry{}
		}
		nilShard.mu.Unlock()
	}
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

// cacheTraffic tags how a query interacted with the memoized cache.
type cacheTraffic int

const (
	trafficNone cacheTraffic = iota // blocked or memoization off
	trafficHit
	trafficMiss
)

// book records every counter of one query in a single critical section
// of the function's shard: attribution, cache traffic, and outcome.
// Booking atomically is what makes Stats() snapshots tear-free.
func (s *shard) book(q *QueryCtx, r Result, analysis string, traffic cacheTraffic) {
	s.mu.Lock()
	s.bookLocked(q, r, analysis, traffic)
	s.mu.Unlock()
}

func (s *shard) bookLocked(q *QueryCtx, r Result, analysis string, traffic cacheTraffic) {
	st := s.stats
	st.Queries++
	if q != nil && q.Pass != "" {
		st.QueriesByPass[q.Pass]++
	}
	switch traffic {
	case trafficHit:
		st.CacheHits++
	case trafficMiss:
		st.CacheMisses++
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
// cacheable prefix from the memoized query cache when possible. All
// statistics of the query are booked in one critical section of the
// issuing function's shard, after the answer is known.
func (mgr *Manager) Alias(a, b MemLoc, q *QueryCtx) Result {
	var fn *ir.Func
	if q != nil {
		fn = q.Func
	}
	s := mgr.shardFor(fn)

	if mgr.Blocker != nil && mgr.Blocker.Block(a, b, q) {
		s.book(q, MayAlias, "", trafficNone)
		return MayAlias
	}
	prefix := mgr.cachePrefixLen()
	if mgr.memoOff.Load() || prefix == 0 {
		r, name := mgr.walk(0, len(mgr.chain), a, b, q)
		s.book(q, r, name, trafficNone)
		return r
	}

	key := queryKeyOf(a, b)
	s.mu.Lock()
	ent, hit := s.cache[key]
	s.mu.Unlock()

	if hit {
		r, name := ent.result, ent.analysis
		if !r.Definitive() {
			// The cacheable prefix is known to be inconclusive: consult
			// only the uncacheable tail (e.g. the ORAQL responder).
			r, name = mgr.walk(prefix, len(mgr.chain), a, b, q)
		}
		s.book(q, r, name, trafficHit)
		return r
	}

	pr, pname := mgr.walk(0, prefix, a, b, q)
	r, name := pr, pname
	if !r.Definitive() {
		r, name = mgr.walk(prefix, len(mgr.chain), a, b, q)
	}
	s.mu.Lock()
	if !mgr.memoOff.Load() {
		s.cache[key] = cacheEntry{result: pr, analysis: pname}
	}
	s.bookLocked(q, r, name, trafficMiss)
	s.mu.Unlock()
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
	_, writes := AccessLocs(in)
	if len(writes) == 0 {
		// Writes memory but through no identifiable pointer (e.g. an
		// unknown call): conservatively clobbers.
		return true
	}
	if in.Op == ir.OpCall && !ir.CalleeEffects(in.Callee).ArgMemOnly {
		// A user call may write through any captured pointer, not only
		// its arguments; still issue the per-argument queries so the
		// query stream matches LLVM's, then stay conservative.
		for _, w := range writes {
			mgr.Alias(loc, w, q)
		}
		return true
	}
	for _, w := range writes {
		if mgr.Alias(loc, w, q) != NoAlias {
			return true
		}
	}
	return false
}

// InstrMayReadLoc reports whether in may read from loc.
func (mgr *Manager) InstrMayReadLoc(in *ir.Instr, loc MemLoc, q *QueryCtx) bool {
	if !in.ReadsMemory() {
		return false
	}
	reads, _ := AccessLocs(in)
	if len(reads) == 0 {
		return true
	}
	if in.Op == ir.OpCall && !ir.CalleeEffects(in.Callee).ArgMemOnly {
		for _, r := range reads {
			mgr.Alias(loc, r, q)
		}
		return true
	}
	for _, r := range reads {
		if mgr.Alias(loc, r, q) != NoAlias {
			return true
		}
	}
	return false
}
