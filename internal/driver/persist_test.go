package driver

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// helloEditedSrc is helloSrc with an extra, alias-hazard-free helper
// function appended after main: main's body — including its !dbg line
// numbers, hence its content hash — is unchanged, so a reprobe should
// inherit main's per-query verdicts from the first campaign.
const helloEditedSrc = `
int main() {
	double a[64];
	for (int i = 0; i < 64; i++) {
		a[i] = (double)i * 2.0;
	}
	for (int i = 0; i < 63; i++) {
		a[i+1] = a[i] * 0.5 + a[i+1];
	}
	double s = 0.0;
	for (int i = 0; i < 64; i++) {
		s = s + a[i];
	}
	print("sum=", s, "\n");
	return 0;
}
double scale(double x) {
	return x * 3.0;
}
`

func probeWithCache(t *testing.T, src string, cache *diskcache.Store) *Result {
	t.Helper()
	var log bytes.Buffer
	spec := &BenchSpec{
		Name:    "hello",
		Compile: pipeline.Config{Source: src},
		Cache:   cache,
		Log:     &log,
	}
	res, err := Probe(spec)
	if err != nil {
		t.Fatalf("probe: %v\n%s", err, log.String())
	}
	t.Logf("\n%s", log.String())
	return res
}

// A repeated campaign on an unchanged program must replay every test
// verdict from the persistent campaign state: zero tests actually run,
// same final sequence.
func TestWarmCampaignReplaysFromDisk(t *testing.T) {
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := probeWithCache(t, helloSrc, cache)
	if cold.TestsDisk != 0 {
		t.Fatalf("cold campaign claims %d disk tests", cold.TestsDisk)
	}
	// The cold campaign's final binary may coincide with the baseline
	// (mostly-pessimistic final sequence), replaying the run it just
	// stored; but its baseline run has nothing to replay from.
	if cold.RunsReplayed > 1 {
		t.Fatalf("cold campaign claims %d replayed runs, want <= 1", cold.RunsReplayed)
	}
	warm := probeWithCache(t, helloSrc, cache)
	if warm.TestsRun != 0 {
		t.Fatalf("warm campaign ran %d tests; want 0 (all from disk)", warm.TestsRun)
	}
	if warm.TestsDisk == 0 {
		t.Fatal("warm campaign consumed no disk outcomes")
	}
	// Both interpreter runs (baseline and final) replay from the
	// run-replay layer with identical results.
	if warm.RunsReplayed != 2 {
		t.Fatalf("warm campaign replayed %d runs, want 2", warm.RunsReplayed)
	}
	if got, want := warm.FinalSeq.String(), cold.FinalSeq.String(); got != want {
		t.Fatalf("warm final seq %q != cold %q", got, want)
	}
	// The warm campaign files the same finding, so the same record.
	if n := warehouse.Open(cache).Load().Len(); n != 1 {
		t.Fatalf("warehouse holds %d records after a warm reprobe, want 1", n)
	}
	if warm.Final.Run.Stdout != cold.Final.Run.Stdout {
		t.Fatalf("warm output %q != cold %q", warm.Final.Run.Stdout, cold.Final.Run.Stdout)
	}
	if warm.Final.Run.Instrs != cold.Final.Run.Instrs ||
		warm.Baseline.Run.Instrs != cold.Baseline.Run.Instrs {
		t.Fatalf("replayed instruction counts diverge: warm %d/%d, cold %d/%d",
			warm.Baseline.Run.Instrs, warm.Final.Run.Instrs,
			cold.Baseline.Run.Instrs, cold.Final.Run.Instrs)
	}
}

// A verdict is only as good as the check that produced it, so one
// store must keep the state of differently checked campaigns apart.
// Masking the output line, or accepting the fully optimistic build's
// output as a second reference, makes helloSrc fully optimistic, while
// the default check convicts; in either order over one store, each
// campaign must end as its uncached twin does.
func TestCampaignStateIsKeyedByVerifySettings(t *testing.T) {
	checks := map[string]verify.Spec{"masked": {MaskPatterns: []string{`sum=.*`}}, "default": {}}
	probe := func(check string, cache *diskcache.Store) *Result {
		t.Helper()
		var log bytes.Buffer
		res, err := Probe(&BenchSpec{
			Name:    "hello",
			Compile: pipeline.Config{Source: helloSrc},
			Verify:  checks[check],
			Workers: 1,
			Cache:   cache,
			Log:     &log,
		})
		if err != nil {
			t.Fatalf("%s probe: %v\n%s", check, err, log.String())
		}
		return res
	}
	masked := probe("masked", nil)
	checks["two references"] = verify.Spec{References: []string{masked.Baseline.Run.Stdout, masked.Final.Run.Stdout}}
	uncached := map[string]string{}
	for check := range checks {
		uncached[check] = probe(check, nil).FinalSeq.String()
	}
	if uncached["masked"] == uncached["default"] || uncached["two references"] == uncached["default"] {
		t.Fatalf("uncached FinalSeqs %q; the test needs the default check to differ", uncached)
	}
	for _, order := range [][]string{
		{"masked", "default"}, {"default", "masked"},
		{"two references", "default"}, {"default", "two references"},
	} {
		cache, err := diskcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, check := range order {
			if got := probe(check, cache).FinalSeq.String(); got != uncached[check] {
				t.Errorf("order %q: %s FinalSeq %q, uncached %q", order, check, got, uncached[check])
			}
		}
	}
}

// guiltySet renders a program-independent view of the convicted
// queries (pass + function + both location dumps).
func guiltySet(res *Result) map[string]int {
	out := map[string]int{}
	for _, rec := range res.GuiltyQueries() {
		a, b := rec.LocDescriptions()
		out[rec.Pass+"|"+rec.Func+"|"+a+"|"+b]++
	}
	return out
}

// Reprobing an edited program must seed its bisection from the
// unchanged functions' persisted verdicts: strictly fewer tests and
// compiles than probing the edit from scratch, with the same final
// guilty-query set.
func TestIncrementalReprobeOfEditedProgram(t *testing.T) {
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Campaign 1 populates the verdict history for main's content hash.
	probeWithCache(t, helloSrc, cache)

	// Scratch probe of the edited program (separate store: no history).
	scratchCache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scratch := probeWithCache(t, helloEditedSrc, scratchCache)

	// Seeded reprobe of the edited program against the shared store.
	seeded := probeWithCache(t, helloEditedSrc, cache)

	if seeded.Compiles >= scratch.Compiles {
		t.Fatalf("seeded reprobe compiles %d, want < scratch %d", seeded.Compiles, scratch.Compiles)
	}
	if st, sc := seeded.TestsRun+seeded.TestsCached, scratch.TestsRun+scratch.TestsCached; st >= sc {
		t.Fatalf("seeded reprobe consumed %d tests, want < scratch %d", st, sc)
	}
	sg, cg := guiltySet(seeded), guiltySet(scratch)
	if len(sg) != len(cg) {
		t.Fatalf("guilty sets differ: seeded %v vs scratch %v", sg, cg)
	}
	for k, n := range cg {
		if sg[k] != n {
			t.Fatalf("guilty sets differ at %q: seeded %d vs scratch %d", k, sg[k], n)
		}
	}
	if seeded.Final.Run.Stdout != scratch.Final.Run.Stdout {
		t.Fatalf("seeded output %q != scratch %q", seeded.Final.Run.Stdout, scratch.Final.Run.Stdout)
	}
	if !strings.Contains(seeded.Final.Run.Stdout, "sum=") {
		t.Fatalf("unexpected output %q", seeded.Final.Run.Stdout)
	}
}

// pick_mat's first pessimistic answer shifts every later position of
// its query stream by one, so its persisted convictions, placed on the
// fully optimistic compile's stream, land one position short of the
// second. The seeded reprobe of an edit that leaves pick_mat alone must
// move the hint with the stream rather than bisect from scratch: at
// most 8 compiles and 4 consumed tests (probing the edit from scratch
// takes 16 compiles), with the uncached edit's FinalSeq and convictions.
func TestSeededReprobePlacesShiftedHint(t *testing.T) {
	src, err := os.ReadFile("testdata/pick_mat.mc")
	if err != nil {
		t.Fatal(err)
	}
	edited := string(src) + "int reprobe_edit(int x) {\n\treturn x * 3 + 7;\n}\n"
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			probe := func(src string, cache *diskcache.Store) *Result {
				t.Helper()
				var log bytes.Buffer
				res, err := Probe(&BenchSpec{
					Name:    "pick_mat",
					Compile: pipeline.Config{Source: src},
					Workers: workers,
					Cache:   cache,
					Log:     &log,
				})
				if err != nil {
					t.Fatalf("probe: %v\n%s", err, log.String())
				}
				return res
			}
			cache, err := diskcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			probe(string(src), cache)
			uncached := probe(edited, nil)
			seeded := probe(edited, cache)
			t.Logf("compiles: seeded %d, uncached %d", seeded.Compiles, uncached.Compiles)

			if seeded.Compiles > 8 {
				t.Errorf("seeded reprobe took %d compiles, want <= 8", seeded.Compiles)
			}
			if n := seeded.TestsRun + seeded.TestsCached; n > 4 {
				t.Errorf("seeded reprobe consumed %d tests, want <= 4", n)
			}
			if s, u := seeded.FinalSeq.String(), uncached.FinalSeq.String(); s != u {
				t.Errorf("FinalSeq differs:\n seeded   %s\n uncached %s", s, u)
			}
			if s, u := fmt.Sprint(guiltySet(seeded)), fmt.Sprint(guiltySet(uncached)); s != u {
				t.Errorf("convictions differ:\n seeded   %s\n uncached %s", s, u)
			}
		})
	}
}
