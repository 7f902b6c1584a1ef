package aa

import (
	"sort"

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

	// CacheHits is always zero: the manager memoizes no query. It is
	// kept only because the benchmark's traced replay (bench/replay.go)
	// reads it, and it goes with CacheLookups when the in-system trace
	// replaces that replay.
	CacheHits int64 `json:"-"`

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
	for k, v := range other.NoAliasByAnalysis {
		s.NoAliasByAnalysis[k] += v
	}
	for k, v := range other.QueriesByPass {
		s.QueriesByPass[k] += v
	}
}

// CacheLookups always returns 0: the manager memoizes no query. It is
// kept only because the benchmark's traced replay (bench/replay.go)
// reads it, and it goes with CacheHits when the in-system trace
// replaces that replay.
func (s *Stats) CacheLookups() int64 { return 0 }

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

// Manager is the alias-analysis chain. Queries walk the chain in order
// and stop at the first definitive answer; if every analysis says
// may-alias, the manager returns may-alias — exactly the LLVM
// AAResults aggregation the paper describes in Section III. Every
// query walks the chain: the manager memoizes nothing, so the ORAQL
// responder, appended last, sees every query that reaches it.
//
// Like LLVM's AAResults, a Manager belongs to one compilation, which
// runs on one goroutine; it is not safe for concurrent use.
type Manager struct {
	Module *ir.Module
	chain  []Analysis

	// Blocker, when non-nil, is consulted before the chain.
	Blocker Blocker

	stats *Stats
}

// NewManager returns a manager over m with the given chain, queried in
// order.
func NewManager(m *ir.Module, chain ...Analysis) *Manager {
	return &Manager{Module: m, chain: chain, stats: NewStats()}
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

// book records a query's attribution and outcome.
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

// Alias answers an alias query with the first definitive answer of
// the chain, or MayAlias when every analysis is inconclusive.
func (mgr *Manager) Alias(a, b MemLoc, q *QueryCtx) Result {
	if mgr.Blocker != nil && mgr.Blocker.Block(a, b, q) {
		mgr.book(q, MayAlias, "")
		return MayAlias
	}
	for _, an := range mgr.chain {
		if r := an.Alias(a, b, q); r.Definitive() {
			mgr.book(q, r, an.Name())
			return r
		}
	}
	mgr.book(q, MayAlias, "")
	return MayAlias
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
