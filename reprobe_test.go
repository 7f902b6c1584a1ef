package goraql

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/report"
)

// A seeded reprobe of an edited program settles in a few compiles:
// one test of the candidate the persisted convictions hint at, and
// when the query stream shifted under that hint, a few live compiles
// that move it and one more test. Where the first placement lands
// (lulesh-seq, testsnap-fortran) it takes at most 5 compiles and 3
// consumed tests; where the stream shifts (the XSBench configs) at
// most 8 and 4. Convictions and FinalSeq match the uncached campaign's
// at every worker count.
func TestSeededReprobeOfEditedApp(t *testing.T) {
	for _, c := range []struct {
		id              string
		compiles, tests int
	}{
		{"xsbench-cuda", 8, 4},
		{"xsbench-seq", 8, 4},
		{"xsbench-openmp", 8, 4},
		{"lulesh-seq", 5, 3},
		{"testsnap-fortran", 5, 3},
	} {
		t.Run(c.id, func(t *testing.T) {
			cfg := apps.ByID(c.id)
			for _, workers := range []int{1, 0} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					probe := func(edited bool, store *diskcache.Store) *driver.Result {
						t.Helper()
						spec := cfg.Spec()
						spec.Strategy = driver.Chunked
						spec.Workers = workers
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
					tests := seeded.TestsRun + seeded.TestsCached
					t.Logf("compiles: seeded %d, uncached %d; seeded tests %d", seeded.Compiles, uncached.Compiles, tests)

					if seeded.Compiles > c.compiles {
						t.Errorf("seeded reprobe took %d compiles, want <= %d", seeded.Compiles, c.compiles)
					}
					if tests > c.tests {
						t.Errorf("seeded reprobe consumed %d tests, want <= %d", tests, c.tests)
					}
					if s, u := seeded.FinalSeq.String(), uncached.FinalSeq.String(); s != u {
						t.Errorf("FinalSeq differs:\n seeded   %s\n uncached %s", s, u)
					}
					if s, u := convictions(seeded), convictions(uncached); fmt.Sprint(s) != fmt.Sprint(u) {
						t.Errorf("convictions differ:\n seeded   %v\n uncached %v", s, u)
					}
				})
			}
		})
	}
}

// A reprobe of an unchanged program writes nothing to its store: its
// test outcomes, runs and TU artifacts are there already, the verdict
// sets hold every descriptor with every conviction, and the warehouse
// holds its record. Each reprobe opens the store afresh, as a new
// process would, and must end as its seeding campaign did.
func TestUnchangedReprobeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	probe := func(cfg *apps.Config, store *diskcache.Store) *driver.Result {
		t.Helper()
		spec := cfg.Spec()
		spec.Strategy = driver.Chunked
		spec.Workers = 1
		spec.Cache = store
		res, err := driver.Probe(spec)
		if err != nil {
			t.Fatalf("%s: %v", cfg.ID, err)
		}
		return res
	}
	open := func() *diskcache.Store {
		t.Helper()
		store, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	seedStore := open()
	seeded := map[string]*driver.Result{}
	for _, cfg := range apps.All() {
		seeded[cfg.ID] = probe(cfg, seedStore)
	}
	files := storeFiles(t, dir)
	for _, cfg := range apps.All() {
		store := open()
		res := probe(cfg, store)
		if c := store.Counters(); c.Puts != 0 || c.PutErrors != 0 {
			t.Errorf("%s: unchanged reprobe made %d puts and %d put errors, want none", cfg.ID, c.Puts, c.PutErrors)
		}
		if got := storeFiles(t, dir); !maps.Equal(got, files) {
			t.Errorf("%s: unchanged reprobe changed the store's files (%d before, %d after)", cfg.ID, len(files), len(got))
			files = got
		}
		want := seeded[cfg.ID]
		if r, s := res.FinalSeq.String(), want.FinalSeq.String(); r != s {
			t.Errorf("%s: FinalSeq differs:\n reprobe %s\n seeding %s", cfg.ID, r, s)
		}
		if r, s := convictions(res), convictions(want); fmt.Sprint(r) != fmt.Sprint(s) {
			t.Errorf("%s: convictions differ:\n reprobe %v\n seeding %v", cfg.ID, r, s)
		}
	}
}

// An unchanged reprobe compiles nothing. Through a fresh handle, each
// of the 16 configs serves its baseline and its final build from their
// TU artifacts and its tests and both runs from its campaign set, so
// it counts no compile; it writes nothing and ends with the seeding
// campaign's final build and probe report, effort counters aside.
func TestUnchangedReprobeServesFinalFromTUArtifact(t *testing.T) {
	dir := t.TempDir()
	probe := func(cfg *apps.Config) (*driver.Result, *diskcache.Store) {
		t.Helper()
		store, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		spec := cfg.Spec()
		spec.Strategy = driver.Chunked
		spec.Workers = 1
		spec.Cache = store
		res, err := driver.Probe(spec)
		if err != nil {
			t.Fatalf("%s: %v", cfg.ID, err)
		}
		return res, store
	}
	seeded := map[string]*driver.Result{}
	for _, cfg := range apps.All() {
		seeded[cfg.ID], _ = probe(cfg)
	}
	files := storeFiles(t, dir)
	for _, cfg := range apps.All() {
		res, store := probe(cfg)
		want := seeded[cfg.ID]
		if b, f := res.Baseline.Compile.DiskHits(), res.Final.Compile.DiskHits(); b == 0 || f == 0 {
			t.Errorf("%s: baseline and final served %d and %d functions from disk, want both > 0", cfg.ID, b, f)
		}
		if res.TestsRun != 0 || res.RunsReplayed != 2 {
			t.Errorf("%s: reprobe ran %d tests and replayed %d runs, want 0 and 2", cfg.ID, res.TestsRun, res.RunsReplayed)
		}
		if res.Compiles != 0 {
			t.Errorf("%s: reprobe counted %d compiles, want 0", cfg.ID, res.Compiles)
		}
		if c := store.Counters(); c.Puts != 0 || c.PutErrors != 0 {
			t.Errorf("%s: reprobe made %d puts and %d put errors, want none", cfg.ID, c.Puts, c.PutErrors)
		}
		if got := storeFiles(t, dir); !maps.Equal(got, files) {
			t.Errorf("%s: reprobe changed the store's files (%d before, %d after)", cfg.ID, len(files), len(got))
			files = got
		}
		if r, s := res.FinalSeq.String(), want.FinalSeq.String(); r != s {
			t.Errorf("%s: FinalSeq differs:\n reprobe %s\n seeding %s", cfg.ID, r, s)
		}
		if r, s := finalBuild(res.Final.Compile), finalBuild(want.Final.Compile); r != s {
			t.Errorf("%s: final build differs from the seeding campaign's at %s", cfg.ID, firstLineDiff(r, s))
		}
		if r, s := probeReport(t, res), probeReport(t, want); r != s {
			t.Errorf("%s: probe report differs:\n reprobe %s\n seeding %s", cfg.ID, r, s)
		}
	}
}

// A fully optimistic campaign compiles its final once: its optimistic
// test is the compile session's first compile and replays no step, so
// that build is the final. With no store, at one worker and at two
// (where the test runs beside the baseline), each of the 7 fully
// optimistic configs takes 2 compiles, and its final equals a live
// compile of the empty sequence in everything a final build reports
// and in its analysis-cache counters.
func TestFullyOptimisticFinalIsItsTestBuild(t *testing.T) {
	for _, id := range []string{"gridmini-offload", "minigmg-ompif", "minigmg-omptask", "minigmg-sse",
		"quicksilver-openmp", "testsnap-seq", "testsnap-kokkos-cuda"} {
		t.Run(id, func(t *testing.T) {
			spec := apps.ByID(id).Spec()
			cfg := spec.Compile
			cfg.Name = spec.Name
			opts := spec.ORAQL
			cfg.ORAQL = &opts
			live, err := pipeline.NewSession(cfg).CompileLive(context.Background(), &opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				spec := apps.ByID(id).Spec()
				spec.Strategy = driver.Chunked
				spec.Workers = workers
				res, err := driver.Probe(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !res.FullyOptimistic || res.Compiles != 2 {
					t.Errorf("workers=%d: fully optimistic %v in %d compiles, want true in 2", workers, res.FullyOptimistic, res.Compiles)
				}
				fin := res.Final.Compile
				if r, l := finalBuild(fin), finalBuild(live); r != l {
					t.Errorf("workers=%d: final build differs from the live compile at %s", workers, firstLineDiff(r, l))
				}
				if r, l := fmt.Sprint(fin.AnalysisStats()), fmt.Sprint(live.AnalysisStats()); r != l {
					t.Errorf("workers=%d: analysis stats differ:\n final %s\n live  %s", workers, r, l)
				}
			}
		})
	}
}

// finalBuild flattens what a final build reports: exe hash, IR text,
// -stats, timing rows, ORAQL and AA statistics, and every query
// record as its readers see it.
func finalBuild(cr *pipeline.CompileResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "exe %s\n", cr.ExeHash())
	for _, ts := range []*pipeline.TargetStats{cr.Host, cr.Device} {
		if ts != nil {
			sb.WriteString(ts.Module.String())
			ts.Pass.Print(&sb)
		}
	}
	for _, row := range cr.Timing().Rows() {
		fmt.Fprintf(&sb, "timing %s runs=%d changed=%d\n", row.Pass, row.Runs, row.Changed)
	}
	fmt.Fprintf(&sb, "oraql %+v\n", cr.ORAQLStats())
	aaStats, _ := json.Marshal(cr.AAStats())
	fmt.Fprintf(&sb, "aa %s\n", aaStats)
	for _, rec := range cr.Records() {
		a, b := rec.LocDescriptions()
		la, lb := rec.SrcLocs()
		fmt.Fprintf(&sb, "record %d %t %s %s hits=%d\n  %s\n  %s\n  %s %s\n",
			rec.Index, rec.Optimistic, rec.Pass, rec.Func, rec.CacheHits, a, b, la, lb)
	}
	return sb.String()
}

// probeReport is a campaign's probe JSON without its effort counters.
func probeReport(t *testing.T, res *driver.Result) string {
	t.Helper()
	pj := report.NewProbeJSON(res)
	pj.Compiles, pj.TestsRun, pj.TestsCached, pj.TestsDisk, pj.TestsSpeculated, pj.TestsWasted = 0, 0, 0, 0, 0, 0
	data, err := json.Marshal(pj)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// firstLineDiff returns the first line where a and b differ.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n reprobe %s\n seeding %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: %d vs %d lines", len(al), len(bl))
}

// Each campaign keeps its test verdicts and its baseline and final
// runs in one campaign set, whatever it tested, and its baseline and
// final builds as TU artifacts. Over the 16 configs at one worker
// through one store, a seeding sweep leaves two TU artifacts and a
// warehouse record blob per config under objects/, and one member in
// each campaign set; an unchanged sweep adds nothing; an edited sweep,
// whose programs have new identities, adds as much again, plus the
// builds its hint placements compiled, and a campaign set per config
// with one member each.
func TestCampaignSetLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(leg string, edited bool) (puts int64) {
		t.Helper()
		before := store.Counters()
		for _, cfg := range apps.All() {
			spec := cfg.Spec()
			spec.Strategy = driver.Chunked
			spec.Workers = 1
			spec.Cache = store
			if edited {
				spec.Compile.Source += "\nint reprobe_edit(int x) {\n\treturn x * 3 + 7;\n}\n"
			}
			if _, err := driver.Probe(spec); err != nil {
				t.Fatalf("%s %s: %v", leg, cfg.ID, err)
			}
		}
		c := store.Counters()
		t.Logf("%s sweep: %d lookups, %d puts", leg,
			c.Hits+c.Misses-before.Hits-before.Misses, c.Puts-before.Puts)
		return c.Puts - before.Puts
	}
	// layout counts the objects and, for every campaign set, its
	// members; a campaign member is the one whose JSON has runs.
	layout := func() (objects int, campaigns map[string]int) {
		t.Helper()
		objs, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		sets, err := filepath.Glob(filepath.Join(dir, "sets", "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		campaigns = map[string]int{}
		for _, set := range sets {
			key := filepath.Base(set)
			for _, data := range store.SetMembers(key) {
				var m map[string]json.RawMessage
				if json.Unmarshal(data, &m) == nil && m["runs"] != nil {
					campaigns[key]++
				}
			}
		}
		return len(objs), campaigns
	}
	check := func(leg string, puts, wantPuts int64, wantObjects, identities int) {
		t.Helper()
		if puts != wantPuts {
			t.Errorf("the %s sweep made %d puts, want %d", leg, puts, wantPuts)
		}
		objects, campaigns := layout()
		if objects != wantObjects {
			t.Errorf("after the %s sweep: %d objects, want %d", leg, objects, wantObjects)
		}
		if len(campaigns) != identities {
			t.Errorf("after the %s sweep: %d campaign sets, want %d", leg, len(campaigns), identities)
		}
		for key, members := range campaigns {
			if members != 1 {
				t.Errorf("after the %s sweep: campaign set %.12s has %d members, want 1", leg, key, members)
			}
		}
	}
	// Each campaign identity owns a baseline and a final TU artifact, a
	// warehouse record and a campaign set. Of the edited campaigns, the
	// ones whose hinted candidate failed placed the hint on 6 more live
	// compiles, each filed like any compile that prints nothing.
	n := len(apps.All())
	check("seeding", sweep("seeding", false), 170, 3*n, n)
	check("unchanged", sweep("unchanged", false), 0, 3*n, n)
	check("edited", sweep("edited", true), 86, 6*n+6, 2*n)
}

// storeFiles maps each file of a store outside tmp/ to the hash of its
// bytes.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "tmp" {
				return filepath.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = diskcache.HashText(string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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

// phiConstSource differs between its two variants only in a constant
// whose sole use is a loop phi. The exe-hash encoding drops phi
// constants, so both variants lower to the same executable hash.
func phiConstSource(init int) string {
	return fmt.Sprintf(`int main() {
	int s = %d;
	for (int i = 0; i < 10; i++) {
		s = s + i;
		print("i ", i, "\n");
	}
	print("s ", s, "\n");
	return 0;
}
`, init)
}

// A persisted baseline run must never serve another program: probing
// program A and then program B through one store, where B differs only
// in a constant the exe hash does not see, must verify B against its
// own output.
func TestRunReplayServesOnlyItsOwnProgram(t *testing.T) {
	probe := func(source string, store *diskcache.Store) (*driver.Result, error) {
		return driver.Probe(&driver.BenchSpec{
			Name:    "phi-const",
			Compile: pipeline.Config{Source: source, SourceFile: "phi_const.mc"},
			Workers: 1,
			Cache:   store,
		})
	}
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := probe(phiConstSource(0), store)
	if err != nil {
		t.Fatalf("program A: %v", err)
	}
	b, err := probe(phiConstSource(5), store)
	if err != nil {
		t.Fatalf("program B after A through one store: %v", err)
	}
	t.Logf("exe hashes equal: %v", a.Baseline.Compile.ExeHash() == b.Baseline.Compile.ExeHash())
	if !strings.Contains(b.Baseline.Run.Stdout, "s 50\n") {
		t.Errorf("program B's baseline printed %q, want its own \"s 50\"", b.Baseline.Run.Stdout)
	}
	if !b.FullyOptimistic {
		t.Errorf("program B is not fully optimistic (final %s)", b.FinalSeq)
	}
	again, err := probe(phiConstSource(5), store)
	if err != nil {
		t.Fatalf("program B again: %v", err)
	}
	if again.RunsReplayed == 0 {
		t.Error("reprobing unchanged program B replayed no run")
	}
}
