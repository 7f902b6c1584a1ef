package difftest

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/progen"
)

// injectSource is the pinned fault-injection program: p aliases &a[2]
// through an offset no conservative analysis can resolve (the offset
// travels through an int array filled by a loop), so the query falls
// through to the ORAQL responder. A wrong optimistic no-alias lets the
// store-to-load forwarding passes forward the stale a[2] value past
// the aliasing store through p.
const injectSource = `int main() {
	double a[8];
	for (int z = 0; z < 8; z++) { a[z] = (double)z; }
	int m[4];
	for (int z = 0; z < 4; z++) { m[z] = z; }
	double* p = a + m[2];
	a[2] = 1.0;
	p[0] = 3.0;
	print("v ", a[2], "\n");
	return 0;
}
`

func injectProgram() *progen.Program {
	return &progen.Program{Seed: -1, FileName: "inject.mc", Source: injectSource}
}

// TestInjectedFaultDiverges checks the oracle end of the pinned
// scenario: the deliberately-wrong optimistic response makes the
// program print the stale value, and the sound variants stay clean.
func TestInjectedFaultDiverges(t *testing.T) {
	p := injectProgram()
	div, err := Check(p, CheckOptions{Variants: []Variant{InjectVariant()}})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("injected optimistic responder did not diverge")
	}
	if div.Ref == div.Got {
		t.Fatalf("divergence with equal outputs: %+v", div)
	}

	clean, err := Check(p, CheckOptions{Variants: Variants()})
	if err != nil {
		t.Fatal(err)
	}
	if clean != nil {
		t.Fatalf("sound variants diverged on the pinned program: %s", clean)
	}
}

// TestInjectedFaultIsTriaged is the pinned acceptance test of the
// triage path: with a deliberately-wrong optimistic alias response
// injected, the harness must pin the divergence to the exact pass and
// guilty query, and emit a minimized reproducer of at most 25 lines.
func TestInjectedFaultIsTriaged(t *testing.T) {
	p := injectProgram()
	div, err := Check(p, CheckOptions{Variants: []Variant{InjectVariant()}})
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("no divergence to triage")
	}
	tr, err := TriageDivergence(div, irinterp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PassIndex < 1 || tr.Pass == "" {
		t.Errorf("triage did not pin a pass: %+v", tr)
	}
	if len(tr.Queries) != 1 {
		t.Fatalf("guilty query set = %d queries, want exactly 1: %+v", len(tr.Queries), tr.Queries)
	}
	q := tr.Queries[0]
	if q.A == "" || q.B == "" {
		t.Errorf("guilty query lacks location descriptions: %+v", q)
	}
	if tr.GuiltySeq == "" || !strings.Contains(tr.GuiltySeq, "1") {
		t.Errorf("guilty sequence %q should contain an optimistic response", tr.GuiltySeq)
	}
	if tr.ReproLines > 25 {
		t.Errorf("reproducer has %d lines, want <= 25:\n%s", tr.ReproLines, tr.Reproducer)
	}
	// The reproducer must still be a valid program.
	if _, _, err := minic.Compile("repro.mc", tr.Reproducer, minic.Options{}); err != nil {
		t.Errorf("reproducer no longer compiles: %v\n%s", err, tr.Reproducer)
	}
	t.Logf("triage: pass %q (position %d), query #%d [%s vs %s], %d-line repro",
		tr.Pass, tr.PassIndex, q.Index, q.A, q.B, tr.ReproLines)
}

// TestCleanFuzzRun is the head-soundness smoke: a window of generated
// programs over the full sound variant matrix must be divergence-free.
// (CI runs 200+ programs through `oraql fuzz` on top of this.)
func TestCleanFuzzRun(t *testing.T) {
	n := 15
	if testing.Short() {
		n = 5
	}
	res, err := Fuzz(FuzzOptions{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("harness errors: %v", res.Errors)
	}
	if len(res.Divergences) > 0 {
		t.Fatalf("MISCOMPILE at head: %s\nsource:\n%s",
			res.Divergences[0].Variant, res.Divergences[0].Source)
	}
	if res.Programs != n {
		t.Errorf("ran %d programs, want %d", res.Programs, n)
	}
}

// TestInjectCampaignTriagesGeneratedProgram runs the fault-injection
// campaign over generated programs: the fully-optimistic responder
// must break at least one of them, and the triage must pin a pass and
// a non-empty guilty query set automatically.
func TestInjectCampaignTriagesGeneratedProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("inject campaign skipped in -short")
	}
	res, err := Fuzz(FuzzOptions{
		N: 30, Seed: 1, Variants: []Variant{InjectVariant()},
		Triage: true, MaxDivergences: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("no generated program diverged under the injected optimistic responder")
	}
	d := res.Divergences[0]
	if d.Triage == nil {
		t.Fatalf("divergence was not triaged: %s", d.TriageErr)
	}
	if d.Triage.Pass == "" || d.Triage.PassIndex < 1 {
		t.Errorf("no pass pinned: %+v", d.Triage)
	}
	if len(d.Triage.Queries) == 0 {
		t.Errorf("no guilty queries pinned: %+v", d.Triage)
	}
	if d.Triage.ReproLines >= countLines(d.Source) {
		t.Errorf("reducer made no progress: %d lines of %d", d.Triage.ReproLines, countLines(d.Source))
	}
}

// TestReduceSource exercises the reducer against a synthetic
// interestingness predicate: it must keep exactly the marked lines.
func TestReduceSource(t *testing.T) {
	src := strings.Repeat("noise();\n", 20) +
		"KEEP_A\n" + strings.Repeat("filler();\n", 13) + "KEEP_B\n"
	interesting := func(s string) bool {
		return strings.Contains(s, "KEEP_A") && strings.Contains(s, "KEEP_B")
	}
	out, tests := ReduceSource(src, interesting, 0)
	if got := countLines(out); got != 2 {
		t.Errorf("reduced to %d lines, want 2:\n%s", got, out)
	}
	if !interesting(out) {
		t.Error("reduction lost the interesting property")
	}
	if tests == 0 {
		t.Error("reducer reported zero predicate evaluations")
	}
}

// TestReduceSourceBlocks checks the block move: a brace-balanced
// region whose removal keeps the property must disappear whole.
func TestReduceSourceBlocks(t *testing.T) {
	src := "KEEP {\nx\ny\n}\nfor (...) {\nnested {\nz\n}\n}\n"
	interesting := func(s string) bool { return strings.Contains(s, "KEEP") }
	out, _ := ReduceSource(src, interesting, 0)
	if strings.Contains(out, "nested") || strings.Contains(out, "for") {
		t.Errorf("block not removed:\n%s", out)
	}
}

// TestDdmin checks 1-minimality on a synthetic multi-element fault.
func TestDdmin(t *testing.T) {
	// Fails iff the set contains both 3 and 17.
	fails := func(s []int) bool {
		has3, has17 := false, false
		for _, x := range s {
			if x == 3 {
				has3 = true
			}
			if x == 17 {
				has17 = true
			}
		}
		return has3 && has17
	}
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	got := ddmin(all, fails, 600)
	if len(got) != 2 {
		t.Fatalf("ddmin = %v, want [3 17]", got)
	}
	if !fails(got) {
		t.Errorf("ddmin result does not fail: %v", got)
	}
}
