package pipeline_test

// Integration test for the manager-level memoized alias-query cache:
// compiling with the cache enabled must be observably identical to
// compiling with it disabled — same executable, same ORAQL counters,
// same no-alias totals — differing only in the cache's own hit/miss
// accounting.

import (
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

func TestAAQueryCacheIsTransparent(t *testing.T) {
	for _, id := range []string{"lulesh-seq", "testsnap-openmp", "minigmg-sse"} {
		app := apps.ByID(id)
		if app == nil {
			t.Fatalf("unknown app config %q", id)
		}
		t.Run(id, func(t *testing.T) {
			spec := app.Spec()
			compile := func(disable bool) *pipeline.CompileResult {
				cfg := spec.Compile
				cfg.Name = id
				cfg.DisableAAQueryCache = disable
				cfg.ORAQL = &oraql.Options{}
				cr, err := pipeline.Compile(cfg)
				if err != nil {
					t.Fatalf("compile (cache disabled=%v): %v", disable, err)
				}
				return cr
			}
			on := compile(false)
			off := compile(true)

			if g, w := on.ExeHash(), off.ExeHash(); g != w {
				t.Errorf("ExeHash differs with cache on: %s vs %s", g, w)
			}
			if g, w := on.ORAQLStats(), off.ORAQLStats(); g != w {
				t.Errorf("ORAQL stats differ: cache on %+v, off %+v", g, w)
			}
			if g, w := on.NoAliasTotal(), off.NoAliasTotal(); g != w {
				t.Errorf("NoAliasTotal differs: cache on %d, off %d", g, w)
			}
			son, soff := on.AAStats(), off.AAStats()
			if son.Queries != soff.Queries || son.MayAlias != soff.MayAlias {
				t.Errorf("query outcome counters differ: cache on %d/%d, off %d/%d",
					son.Queries, son.MayAlias, soff.Queries, soff.MayAlias)
			}
			for name, n := range soff.NoAliasByAnalysis {
				if son.NoAliasByAnalysis[name] != n {
					t.Errorf("no-alias attribution for %s differs: cache on %d, off %d",
						name, son.NoAliasByAnalysis[name], n)
				}
			}
			if son.CacheHits == 0 {
				t.Errorf("cache enabled but CacheHits == 0")
			}
			// The pass manager flushes the bucket of each function a pass
			// changed.
			if son.CacheScopedFlushes == 0 {
				t.Errorf("cache enabled but CacheScopedFlushes == 0 (invalidation never fired)")
			}
			if soff.CacheHits != 0 || soff.CacheMisses != 0 {
				t.Errorf("cache disabled but counted %d hits / %d misses",
					soff.CacheHits, soff.CacheMisses)
			}
			t.Logf("%s: %d queries, cache hit rate %.1f%%, %d scoped flushes",
				id, son.Queries, 100*son.CacheHitRate(), son.CacheScopedFlushes)
		})
	}
}
