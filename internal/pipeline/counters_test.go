package pipeline_test

// TestCompileCountersGolden pins the alias-analysis and analysis-manager
// counters of four compilations per configuration. The transparency
// tests compare cache-on with cache-off, and Fig. 4 prints a rounded
// hit rate, so without this golden a change to either cache could move
// a counter unseen.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden from the current compiler")

func TestCompileCountersGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range apps.All() {
		spec := c.Spec()
		base := spec.Compile
		base.Name = spec.Name
		compile := func(cfg pipeline.Config) *pipeline.CompileResult {
			cr, err := pipeline.Compile(cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.ID, err)
			}
			return cr
		}

		cached := compile(base)
		forced := base
		forced.DisableAnalysisCache = true
		optCfg := base
		opts := spec.ORAQL
		optCfg.ORAQL = &opts
		optimistic := compile(optCfg)

		// The all-pessimistic sequence covers every query the fully
		// optimistic compile asked, with the driver's slack.
		sess := pipeline.NewSession(optCfg)
		if _, err := sess.Compile(context.Background(), nil); err != nil {
			t.Fatalf("%s: session: %v", c.ID, err)
		}
		pess := make(oraql.Seq, optimistic.ORAQLStats().Unique()+64)
		second, err := sess.Compile(context.Background(), pess)
		if err != nil {
			t.Fatalf("%s: session: %v", c.ID, err)
		}

		fmt.Fprintf(&b, "== %s\n", c.ID)
		writeCounters(&b, "O3 analysis cache on", cached)
		writeCounters(&b, "O3 analysis cache off", compile(forced))
		writeCounters(&b, "ORAQL fully optimistic", optimistic)
		writeCounters(&b, "session second compile, all pessimistic", second)
	}

	path := filepath.Join("testdata", "counters.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: first difference at line %d:\ngot:  %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

// writeCounters renders every alias-analysis counter of cr but the
// module-wide flush count, its maps sorted by key, and every analysis
// manager row.
func writeCounters(b *strings.Builder, label string, cr *pipeline.CompileResult) {
	s := cr.AAStats()
	fmt.Fprintf(b, "-- %s\n", label)
	fmt.Fprintf(b, "aa queries=%d no_alias=%d must_alias=%d partial_alias=%d may_alias=%d\n",
		s.Queries, s.NoAlias, s.MustAlias, s.PartialAlias, s.MayAlias)
	fmt.Fprintf(b, "aa cache hits=%d misses=%d scoped_flushes=%d\n",
		s.CacheHits, s.CacheMisses, s.CacheScopedFlushes)
	fmt.Fprintf(b, "aa no_alias_by_analysis%s\n", sortedCounts(s.NoAliasByAnalysis))
	fmt.Fprintf(b, "aa queries_by_pass%s\n", sortedCounts(s.QueriesByPass))
	for _, as := range cr.AnalysisStats() {
		fmt.Fprintf(b, "analysis %s hits=%d misses=%d invalidations=%d\n",
			as.Key, as.Hits, as.Misses, as.Invalidations)
	}
}

func sortedCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %q=%d", k, m[k])
	}
	return b.String()
}
