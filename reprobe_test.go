package goraql

import (
	"fmt"
	"sort"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
)

// A seeded reprobe of an edited program costs at most one test more
// than probing the edit without a cache: the hint from the persisted
// verdicts is one test, and when it fails the round bisects exactly
// as a cold campaign does. Convictions and FinalSeq match the
// uncached campaign's.
func TestSeededReprobeOfEditedApp(t *testing.T) {
	for _, id := range []string{"xsbench-cuda", "xsbench-seq", "lulesh-seq"} {
		t.Run(id, func(t *testing.T) {
			cfg := apps.ByID(id)
			probe := func(edited bool, store *diskcache.Store) *driver.Result {
				t.Helper()
				spec := cfg.Spec()
				spec.Strategy = driver.Chunked
				spec.Workers = 1
				spec.Cache = store
				if edited {
					// A helper nothing calls, after every existing
					// function: their content hashes survive the edit.
					spec.Compile.Source += "\nint reprobe_edit(int x) {\n\treturn x * 3 + 7;\n}\n"
				}
				res, err := driver.Probe(spec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			store, err := diskcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			probe(false, store)
			uncached := probe(true, nil)
			seeded := probe(true, store)
			t.Logf("compiles: seeded %d, uncached %d", seeded.Compiles, uncached.Compiles)

			if seeded.Compiles > uncached.Compiles+1 {
				t.Errorf("seeded reprobe took %d compiles, want <= %d (uncached %d + 1)",
					seeded.Compiles, uncached.Compiles+1, uncached.Compiles)
			}
			if s, u := seeded.FinalSeq.String(), uncached.FinalSeq.String(); s != u {
				t.Errorf("FinalSeq differs:\n seeded   %s\n uncached %s", s, u)
			}
			if s, u := convictions(seeded), convictions(uncached); fmt.Sprint(s) != fmt.Sprint(u) {
				t.Errorf("convictions differ:\n seeded   %v\n uncached %v", s, u)
			}
		})
	}
}

// convictions lists a campaign's guilty queries as sorted
// "pass|func|a|b" descriptors.
func convictions(res *driver.Result) []string {
	var out []string
	for _, rec := range res.GuiltyQueries() {
		a, b := rec.LocDescriptions()
		out = append(out, fmt.Sprintf("%s|%s|%s|%s", rec.Pass, rec.Func, a, b))
	}
	sort.Strings(out)
	return out
}
