package analysis

import (
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
)

// fixture is two functions and a real AA manager over them for the
// walkers to query.
type fixture struct {
	f, g *ir.Func
}

func newFixture(caching bool) (*fixture, *Manager) {
	m := ir.NewModule("t")
	for _, name := range []string{"f", "g"} {
		_, b := ir.NewFunc(m, name, ir.Void)
		b.Ret(nil)
	}
	fx := &fixture{f: m.Funcs[0], g: m.Funcs[1]}
	return fx, NewManager(aa.NewManager(m, aa.NewBasicAA()), caching)
}

// counters returns the cfg and memory-ssa rows.
func counters(m *Manager) (cfgRow, walkRow Stats) {
	s := m.Snapshot()
	return s[0], s[1]
}

func TestPreservedAnalysesSets(t *testing.T) {
	var zero PreservedAnalyses
	if zero != None {
		t.Error("the zero value must preserve nothing")
	}
	if !(None < CFGOnly && CFGOnly < All) {
		t.Error("levels must nest: All ⊃ CFGOnly ⊃ None")
	}
}

func TestManagerCachesPerFunction(t *testing.T) {
	fx, m := newFixture(true)
	if m.CFG(fx.f) != m.CFG(fx.f) {
		t.Error("second CFG request must be served from the cache")
	}
	if m.CFG(fx.g) == m.CFG(fx.f) {
		t.Error("distinct functions must not share results")
	}
	w := m.MemSSA(fx.f) // a walker miss, whose build hits f's CFG
	if m.MemSSA(fx.f) != w {
		t.Error("second walker request must be served from the cache")
	}
	c, wk := counters(m)
	if c.Hits != 3 || c.Misses != 2 {
		t.Errorf("cfg hits/misses = %d/%d, want 3/2", c.Hits, c.Misses)
	}
	if wk.Hits != 1 || wk.Misses != 1 {
		t.Errorf("memory-ssa hits/misses = %d/%d, want 1/1", wk.Hits, wk.Misses)
	}
}

func TestManagerCFGOnlyKeepsCFGAndWalker(t *testing.T) {
	fx, m := newFixture(true)
	info, w := m.CFG(fx.f), m.MemSSA(fx.f)
	m.Invalidate(fx.f, CFGOnly)
	if m.CFG(fx.f) != info || m.MemSSA(fx.f) != w {
		t.Error("CFGOnly must keep the CFG info and the walker")
	}
	if c, wk := counters(m); c.Invalidations != 0 || wk.Invalidations != 0 {
		t.Errorf("invalidations = %d/%d, want 0/0", c.Invalidations, wk.Invalidations)
	}
}

func TestManagerInvalidationScope(t *testing.T) {
	fx, m := newFixture(true)
	info, w := m.CFG(fx.f), m.MemSSA(fx.f)
	gInfo := m.CFG(fx.g)

	m.Invalidate(fx.f, None)
	if m.CFG(fx.f) == info || m.MemSSA(fx.f) == w {
		t.Error("None must drop f's CFG info and walker")
	}
	if m.CFG(fx.g) != gInfo {
		t.Error("g's entry must survive f's invalidation")
	}
	if c, wk := counters(m); c.Invalidations != 1 || wk.Invalidations != 1 {
		t.Errorf("invalidations = %d/%d, want 1/1", c.Invalidations, wk.Invalidations)
	}
	// Only what was cached counts: g has a CFG but no walker.
	m.Invalidate(fx.g, None)
	if c, wk := counters(m); c.Invalidations != 2 || wk.Invalidations != 1 {
		t.Errorf("invalidations = %d/%d, want 2/1", c.Invalidations, wk.Invalidations)
	}
}

func TestManagerAllIsNoOp(t *testing.T) {
	fx, m := newFixture(true)
	info, w := m.CFG(fx.f), m.MemSSA(fx.f)
	m.Invalidate(fx.f, All)
	if m.CFG(fx.f) != info || m.MemSSA(fx.f) != w {
		t.Error("All must keep every analysis")
	}
}

func TestManagerForceInvalidateMode(t *testing.T) {
	fx, m := newFixture(false)
	if m.CFG(fx.f) == m.CFG(fx.f) {
		t.Error("force mode must rebuild on every request")
	}
	m.MemSSA(fx.f)
	m.MemSSA(fx.f)
	c, wk := counters(m)
	if c.Hits != 0 || c.Misses != 4 || wk.Hits != 0 || wk.Misses != 2 {
		t.Errorf("cfg %d/%d, memory-ssa %d/%d hits/misses, want 0/4, 0/2",
			c.Hits, c.Misses, wk.Hits, wk.Misses)
	}
	m.Invalidate(fx.f, CFGOnly)
	m.Invalidate(fx.f, None)
	if c, wk := counters(m); c.Invalidations != 0 || wk.Invalidations != 0 {
		t.Errorf("nothing is cached, yet invalidations = %d/%d", c.Invalidations, wk.Invalidations)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	fx, m := newFixture(true)
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Key != CFGKey || snap[1].Key != MemSSAKey {
		t.Fatalf("snapshot = %+v, want [cfg memory-ssa]", snap)
	}
	m.CFG(fx.f)
	if c, _ := counters(m); c.Misses != 1 {
		t.Errorf("cfg misses = %d, want 1", c.Misses)
	}
}
