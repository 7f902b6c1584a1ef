package goraql

// Strategy conformance: for every strategy that decides queries left
// to right — chunked, linear, and script-defined strategies built the
// same way — a singleton conviction test always runs in the same
// context (final decided prefix, pessimistic suffix), so the
// conviction set and the final executable are properties of the
// program, not of where the bisection splits. The suite pins that:
// identical conviction sets and byte-identical exe hashes across the
// whole prefix-context family, at any worker count. This is the
// contract that lets -strategy, scripted strategies, and the bench
// matrix interchange those strategies freely: they trade compile
// counts, never verdicts.
//
// The freq strategy is the deliberate exception: its residue-class
// candidates scatter optimistic bits across the sequence, and the
// verification oracle is context-sensitive (pass interactions such as
// Early CSE fire differently under different optimistic contexts), so
// freq legitimately convicts a superset. For it the suite asserts
// exactly that — every chunked conviction is covered, and the outcome
// is identical across worker counts.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/campaign"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/registry"
)

// conformanceConfigs pins the configurations the suite runs: apps
// with multiple convictions, a single conviction, and none at all.
var conformanceConfigs = []string{
	"lulesh-seq",      // two convictions
	"minife-openmp",   // one conviction
	"testsnap-openmp", // two convictions, OpenMP outlining
	"xsbench-seq",     // two convictions in one function
	"minigmg-sse",     // fully optimistic
}

// scriptedLinear is the .oraql-defined member of the conformance set:
// a linear left-to-right strategy written against the probe_* prober
// bindings and registered with register_strategy.
const scriptedLinear = `
register_strategy("scripted-linear", fn(n) {
  let decided = []
  for i in range(n) {
    decided = append(decided, false)
  }
  for i in range(n) {
    let cand = []
    for j in range(n) {
      if j == i {
        cand = append(cand, true)
      } else {
        cand = append(cand, decided[j])
      }
    }
    if probe_test(probe_pad(cand)) {
      decided[i] = true
    }
  }
  return decided
})
let res = probe({config: %q, strategy: "scripted-linear", workers: %d})
return {exe: res.exe_hash, guilty: res.guilty_queries}
`

// probeOutcome is the conformance fingerprint of one probe run.
type probeOutcome struct {
	exe    string
	guilty []string // sorted "pass|func|a|b" descriptors
}

func driverOutcome(t *testing.T, cfg *apps.Config, strat driver.Strategy, workers int) probeOutcome {
	t.Helper()
	spec := cfg.Spec()
	spec.Strategy = strat
	spec.Workers = workers
	res, err := driver.Probe(spec)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", strat.Name(), workers, err)
	}
	var guilty []string
	for _, rec := range res.GuiltyQueries() {
		a, b := rec.LocDescriptions()
		guilty = append(guilty, fmt.Sprintf("%s|%s|%s|%s", rec.Pass, rec.Func, a, b))
	}
	sort.Strings(guilty)
	return probeOutcome{exe: res.Final.Compile.ExeHash(), guilty: guilty}
}

func scriptOutcome(t *testing.T, cfgID string, workers int) probeOutcome {
	t.Helper()
	var out bytes.Buffer
	res, err := campaign.Run(fmt.Sprintf(scriptedLinear, cfgID, workers), campaign.Options{Out: &out})
	if err != nil {
		t.Fatalf("scripted-linear workers=%d: %v\n%s", workers, err, out.String())
	}
	m, ok := res.Value.(map[string]any)
	if !ok {
		t.Fatalf("script returned %T, want map", res.Value)
	}
	o := probeOutcome{exe: m["exe"].(string)}
	if gl, ok := m["guilty"].([]any); ok {
		for _, g := range gl {
			q := g.(map[string]any)
			o.guilty = append(o.guilty, fmt.Sprintf("%s|%s|%s|%s", q["pass"], q["func"], q["a"], q["b"]))
		}
	}
	sort.Strings(o.guilty)
	return o
}

func TestStrategyConformance(t *testing.T) {
	for _, id := range conformanceConfigs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cfg := apps.ByID(id)
			if cfg == nil {
				t.Fatalf("unknown pinned configuration %q", id)
			}
			ref := driverOutcome(t, cfg, driver.Chunked, 1)
			t.Logf("reference: %d convictions, exe %s", len(ref.guilty), ref.exe[:12])

			check := func(name string, got probeOutcome) {
				if strings.Join(got.guilty, "\n") != strings.Join(ref.guilty, "\n") {
					t.Errorf("%s: conviction set differs from chunked/1:\n got: %v\nwant: %v",
						name, got.guilty, ref.guilty)
				}
				if got.exe != ref.exe {
					t.Errorf("%s: exe hash %s differs from chunked/1 %s", name, got.exe, ref.exe)
				}
			}

			for _, e := range registry.Strategies.Entries() {
				strat := e.Value.(driver.Strategy)
				if strat.Name() == "freq" {
					// Different context family: superset coverage and
					// worker-count determinism instead of identity.
					one := driverOutcome(t, cfg, strat, 1)
					covered := map[string]bool{}
					for _, g := range one.guilty {
						covered[g] = true
					}
					for _, g := range ref.guilty {
						if !covered[g] {
							t.Errorf("freq/1 misses chunked conviction %s", g)
						}
					}
					eight := driverOutcome(t, cfg, strat, 8)
					if eight.exe != one.exe || strings.Join(eight.guilty, "\n") != strings.Join(one.guilty, "\n") {
						t.Errorf("freq outcome differs between workers 1 and 8")
					}
					continue
				}
				for _, workers := range []int{1, 8} {
					if strat == driver.Chunked && workers == 1 {
						continue // the reference itself
					}
					check(fmt.Sprintf("%s/%d", strat.Name(), workers),
						driverOutcome(t, cfg, strat, workers))
				}
			}
			for _, workers := range []int{1, 8} {
				check(fmt.Sprintf("scripted-linear/%d", workers), scriptOutcome(t, id, workers))
			}
		})
	}
}
