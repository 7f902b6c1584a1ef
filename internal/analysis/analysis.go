// Package analysis is the per-function analysis cache of one
// compilation, modelled on LLVM's new-pass-manager
// AnalysisManager/PreservedAnalyses protocol reduced to what the
// pipeline uses: each function's CFG info and MemorySSA walker are
// computed on first request and kept until a pass declares it did not
// preserve them, and every change flushes the changed function's
// bucket of the alias-query cache. Keeping the CFG and the walker
// across the passes that do not touch the CFG is a modest win, about
// 1.1× on compile time and within noise on some configurations
// (BENCH_compile.json records the forced/cached ratio per config).
package analysis

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/mssa"
)

// Key names an analysis in a Stats row.
type Key string

const (
	// CFGKey is the control-flow-graph analysis (preds, RPO, dominator
	// tree, natural loops) — cfg.Info.
	CFGKey Key = "cfg"
	// MemSSAKey is the MemorySSA clobber walker — mssa.Walker.
	MemSSAKey Key = "memory-ssa"
)

// PreservedAnalyses is a transformation pass's declaration of which
// analyses remain valid after it ran, the return value of LLVM's new
// pass manager. The three levels nest: All ⊃ CFGOnly ⊃ None. The zero
// value is None.
type PreservedAnalyses int

const (
	// None: the pass restructured the CFG, so nothing survives.
	None PreservedAnalyses = iota
	// CFGOnly: the function's instructions changed but its block
	// structure did not. The CFG info survives, and so does the
	// MemorySSA walker, a stateless view over it; the function's
	// alias-query cache bucket is flushed. EarlyCSE, GVN, DSE, LICM and
	// Sink return it.
	CFGOnly
	// All: the pass did not change the function.
	All
)

// Stats counts cache traffic for one analysis.
type Stats struct {
	Key           Key
	Hits          int64
	Misses        int64
	Invalidations int64
}

// Manager caches the CFG info and the MemorySSA walker of each
// function. It belongs to one compilation, which runs on one
// goroutine; it is not safe for concurrent use.
type Manager struct {
	aa      *aa.Manager
	caching bool

	cfgs      map[*ir.Func]*cfg.Info
	walkers   map[*ir.Func]*mssa.Walker
	cfgStats  Stats
	walkStats Stats
}

// NewManager returns an empty cache whose walkers query aaMgr and
// whose invalidations flush aaMgr's per-function buckets. With caching
// false it runs in force-invalidate mode: every request rebuilds its
// analysis, and declared preservation is never trusted — the reference
// behaviour the transparency tests compare the cache against.
func NewManager(aaMgr *aa.Manager, caching bool) *Manager {
	return &Manager{aa: aaMgr, caching: caching,
		cfgs:      map[*ir.Func]*cfg.Info{},
		walkers:   map[*ir.Func]*mssa.Walker{},
		cfgStats:  Stats{Key: CFGKey},
		walkStats: Stats{Key: MemSSAKey}}
}

// CFG returns fn's control-flow analyses.
func (m *Manager) CFG(fn *ir.Func) *cfg.Info {
	return lookup(m, m.cfgs, &m.cfgStats, fn, func() *cfg.Info { return cfg.New(fn) })
}

// MemSSA returns fn's MemorySSA clobber walker, built over fn's CFG.
func (m *Manager) MemSSA(fn *ir.Func) *mssa.Walker {
	return lookup(m, m.walkers, &m.walkStats, fn, func() *mssa.Walker {
		return mssa.New(fn, m.CFG(fn), m.aa)
	})
}

// lookup serves fn's entry from cache, or builds it, counting a hit or
// a miss in st; a build is kept only while caching.
func lookup[T any](m *Manager, cache map[*ir.Func]T, st *Stats, fn *ir.Func, build func() T) T {
	if v, ok := cache[fn]; ok {
		st.Hits++
		return v
	}
	st.Misses++
	v := build()
	if m.caching {
		cache[fn] = v
	}
	return v
}

// Invalidate applies a pass's preservation level to fn. All is a
// no-op. Any change flushes fn's alias-query cache bucket, and None
// also drops fn's CFG info and walker, counting each one dropped. In
// force-invalidate mode nothing is cached, so only the flush remains.
func (m *Manager) Invalidate(fn *ir.Func, pa PreservedAnalyses) {
	if pa == All {
		return
	}
	if pa == None {
		drop(m.cfgs, &m.cfgStats, fn)
		drop(m.walkers, &m.walkStats, fn)
	}
	m.aa.InvalidateFunc(fn)
}

func drop[T any](cache map[*ir.Func]T, st *Stats, fn *ir.Func) {
	if _, ok := cache[fn]; ok {
		delete(cache, fn)
		st.Invalidations++
	}
}

// Snapshot returns the counters of both analyses, sorted by key.
func (m *Manager) Snapshot() []Stats { return []Stats{m.cfgStats, m.walkStats} }
