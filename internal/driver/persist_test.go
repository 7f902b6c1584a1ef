package driver

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
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

// A host and a device record at one position read the same sequence
// bit, so the position must stay pessimistic when either must:
// 1 − (1 − p_host)(1 − p_device). A position with one record keeps
// its estimate bit for bit, which leaves single-target priors as they
// were; a position with none is unknown.
func TestPositionPriorsCombineRecordsAtOneIndex(t *testing.T) {
	recs := []*oraql.QueryRecord{
		{Index: 0}, {Index: 1}, {Index: 3}, // host
		{Index: 0}, {Index: 3}, // device
	}
	est := []float64{0.1, 0.3, 0.95, 0.2, 0.9}
	got := positionPriors(recs, est)
	want := []float64{
		1 - (1-0.1)*(1-0.2),
		0.3,
		0.5,
		0.98, // 1 − 0.05·0.1 = 0.995, clamped
		0.5,
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("prior[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if got[1] != est[1] {
		t.Errorf("single-record prior %v is not its estimate %v bit for bit", got[1], est[1])
	}
}

// PFail composes per-query failure probabilities into a range
// estimate: the range fails when any member fails, so
// PFail(lo, hi) = 1 - prod(1 - p_i), with 0.5 for every query the
// priors table does not cover. The table mixes known and unknown
// positions to pin that composition.
func TestPFailMixedKnownUnknownPriors(t *testing.T) {
	st := &state{priors: []float64{0.2, 0.8}} // queries 2+ unknown
	cases := []struct {
		name   string
		lo, hi int
		want   float64
	}{
		{"single known low", 0, 1, 0.2},
		{"single known high", 1, 2, 0.8},
		{"two known combine", 0, 2, 1 - 0.8*0.2},
		{"single unknown defaults to 0.5", 2, 3, 0.5},
		{"known and unknown mix", 0, 3, 1 - 0.8*0.2*0.5},
		{"unknown pair", 2, 4, 1 - 0.5*0.5},
		{"empty range never fails", 1, 1, 0},
	}
	for _, c := range cases {
		if got := st.PFail(c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: PFail(%d, %d) = %g, want %g", c.name, c.lo, c.hi, got, c.want)
		}
	}

	// With no priors loaded every estimate is 0.5-based and HasPriors
	// reports false — strategies then skip prior-driven ordering.
	bare := &state{}
	if bare.HasPriors() {
		t.Error("state without priors claims HasPriors")
	}
	if got := bare.PFail(0, 2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("unseeded PFail(0, 2) = %g, want 0.75", got)
	}
	if !st.HasPriors() {
		t.Error("state with priors denies HasPriors")
	}
}
