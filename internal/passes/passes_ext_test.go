package passes_test

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
)

// compile runs the frontend + O3 pipeline (optionally with a fully
// optimistic ORAQL pass) and returns the module plus statistics.
func compile(t testing.TB, src string, optimistic bool) (*ir.Module, *passes.StatsRegistry) {
	t.Helper()
	host, _, err := minic.Compile("test.mc", src, minic.Options{})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	mgr := aa.NewManager(host, aa.DefaultChain(host)...)
	if optimistic {
		mgr.Append(oraql.New(host, oraql.Options{}))
	}
	stats := passes.NewStats()
	ctx := &passes.Context{Module: host, AA: mgr, Stats: stats}
	passes.O3Pipeline().Run(ctx)
	if err := ir.Verify(host); err != nil {
		t.Fatalf("post-opt verify: %v\n%s", err, host.String())
	}
	return host, stats
}

// runOut interprets a module and returns stdout.
func runOut(t testing.TB, m *ir.Module) string {
	t.Helper()
	res, err := irinterp.Run(&irinterp.Program{Host: m}, irinterp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Stdout
}

// compileO0 runs only the frontend (no optimization).
func compileO0(t testing.TB, src string) *ir.Module {
	t.Helper()
	host, _, err := minic.Compile("test.mc", src, minic.Options{})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	return host
}

// semanticsPreserved checks O0 and O3 outputs match.
func semanticsPreserved(t *testing.T, src string) (string, *passes.StatsRegistry) {
	t.Helper()
	ref := runOut(t, compileO0(t, src))
	opt, stats := compile(t, src, false)
	got := runOut(t, opt)
	if got != ref {
		t.Fatalf("optimization changed semantics:\n O0: %q\n O3: %q\nIR:\n%s", ref, got, opt.String())
	}
	return got, stats
}

func TestConstantFolding(t *testing.T) {
	src := `
int main() {
	int x = 6 * 7;
	double y = 1.5 + 2.5;
	print(x, " ", y, "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "42 4\n" {
		t.Errorf("out = %q", out)
	}
}

func TestEarlyCSELoadForwarding(t *testing.T) {
	src := `
int main() {
	double a[4];
	double b[4];
	a[0] = 1.5;
	b[0] = 2.5;
	double x = a[0];
	double y = a[0];
	print(x + y, "\n");
	return 0;
}`
	_, stats := semanticsPreserved(t, src)
	if stats.Get("Early CSE", "# instructions eliminated") == 0 {
		t.Error("expected CSE to eliminate the redundant load")
	}
}

func TestGVNStoreToLoadForwarding(t *testing.T) {
	src := `
int main() {
	double a[8];
	a[3] = 9.5;
	double s = 0.0;
	if (a[3] > 1.0) {
		s = a[3] * 2.0;
	}
	print(s, "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "19\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDSEOverwrittenStore(t *testing.T) {
	src := `
int main() {
	double a[2];
	a[0] = 1.0;
	a[0] = 2.0;
	print(a[0], "\n");
	return 0;
}`
	_, stats := semanticsPreserved(t, src)
	if stats.Get("Dead Store Elimination", "# stores deleted") == 0 {
		t.Error("the overwritten store must be deleted")
	}
}

func TestDSEBlockedByInterveningRead(t *testing.T) {
	src := `
int main() {
	double a[2];
	a[0] = 1.0;
	double x = a[0];
	a[0] = 2.0;
	print(x + a[0], "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "3\n" {
		t.Errorf("out = %q", out)
	}
}

// TestDSEReadThroughConditionalPointer: minic lowers ?: to a select,
// so the arrays are read only through it; DSE must keep their stores.
func TestDSEReadThroughConditionalPointer(t *testing.T) {
	src := `
int main() {
	double a[4];
	double c[4];
	for (int i = 0; i < 2; i++) { a[i] = 42.0 + i; c[i] = 7.0 + i; }
	double s = 0.0;
	for (int i = 0; i < 2; i++) { double *p = (i == 1) ? a : c; s = s + p[1]; }
	print(s, "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "51\n" {
		t.Errorf("out = %q, want %q", out, "51\n")
	}
}

func TestLICMHoistsInvariantLoad(t *testing.T) {
	src := `
int main() {
	double coef[1];
	double out[64];
	coef[0] = 2.5;
	double s = 0.0;
	for (int i = 0; i < 64; i++) {
		out[i] = coef[0] * (double)i;
	}
	for (int i = 0; i < 64; i++) {
		s = s + out[i];
	}
	print(s, "\n");
	return 0;
}`
	_, stats := semanticsPreserved(t, src)
	if stats.Get("Loop Invariant Code Motion", "# loads hoisted or sunk") == 0 {
		t.Error("coef[0] must be hoisted out of the loop")
	}
}

func TestLoopRotation(t *testing.T) {
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		s = s + i;
	}
	print(s, "\n");
	return 0;
}`
	out, stats := semanticsPreserved(t, src)
	if out != "45\n" {
		t.Errorf("out = %q", out)
	}
	if stats.Get("Loop Rotation", "# loops rotated") == 0 {
		t.Error("the counted loop must be rotated")
	}
}

func TestLoopRotationZeroTrip(t *testing.T) {
	src := `
int zero() {
	return 0;
}
int main() {
	int n = zero();
	double a[4];
	a[0] = 5.0;
	for (int i = 0; i < n; i++) {
		a[0] = 99.0;
	}
	print(a[0], "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "5\n" {
		t.Errorf("zero-trip rotated loop must not execute: %q", out)
	}
}

func TestLoopDeletionDeadLoop(t *testing.T) {
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 100; i++) {
		int dead = i * 3 + 1;
	}
	for (int i = 0; i < 5; i++) {
		s = s + i;
	}
	print(s, "\n");
	return 0;
}`
	out, stats := semanticsPreserved(t, src)
	if out != "10\n" {
		t.Errorf("out = %q", out)
	}
	if stats.Get("Loop Deletion", "# deleted loops") == 0 {
		t.Error("the dead loop must be deleted")
	}
}

func TestVectorizeIndependentLoop(t *testing.T) {
	src := `
int main() {
	double a[64];
	double b[64];
	double c[64];
	for (int i = 0; i < 64; i++) {
		a[i] = (double)i;
		b[i] = (double)(i * 2);
	}
	for (int i = 0; i < 64; i++) {
		c[i] = a[i] * b[i] + 1.0;
	}
	double s = 0.0;
	for (int i = 0; i < 64; i++) {
		s = s + c[i];
	}
	print(s, "\n");
	return 0;
}`
	_, stats := semanticsPreserved(t, src)
	if stats.Get("Loop Vectorizer", "# vectorized loops") == 0 {
		t.Error("the independent elementwise loop must vectorize (distinct allocas)")
	}
}

func TestVectorizeRejectsTrueDependence(t *testing.T) {
	// a[i+1] = f(a[i]) must never vectorize, even fully optimistic:
	// the conservative chain cannot prove it, and with optimistic
	// answers the output would change — here we check the pessimistic
	// (default-chain) compilation keeps it scalar AND correct.
	src := `
int main() {
	double a[32];
	for (int i = 0; i < 32; i++) {
		a[i] = (double)i;
	}
	for (int i = 0; i < 31; i++) {
		a[i+1] = a[i] * 0.5 + a[i+1];
	}
	print(checksum(a, 32), "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out == "" {
		t.Fatal("no output")
	}
}

func TestVectorizeIntReduction(t *testing.T) {
	src := `
int main() {
	int a[64];
	for (int i = 0; i < 64; i++) {
		a[i] = i;
	}
	int s = 5;
	for (int i = 0; i < 64; i++) {
		s = s + a[i];
	}
	print(s, "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "2021\n" { // 5 + 64*63/2
		t.Errorf("reduction = %q", out)
	}
}

func TestVectorizeRemainderLoop(t *testing.T) {
	// Trip count 13 = 3 vector iterations + 1 scalar remainder.
	src := `
int main() {
	double a[13];
	double b[13];
	for (int i = 0; i < 13; i++) {
		a[i] = (double)i;
	}
	for (int i = 0; i < 13; i++) {
		b[i] = a[i] * 3.0;
	}
	print(checksum(b, 13), "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out == "" {
		t.Fatal("no output")
	}
}

func TestSLPVectorizesIsomorphicStores(t *testing.T) {
	src := `
void kernel4(double* restrict out, double* restrict in, double h) {
	out[0] = in[0] * h + 1.5;
	out[1] = in[1] * h + 1.5;
	out[2] = in[2] * h + 1.5;
	out[3] = in[3] * h + 1.5;
}
int main() {
	double a[4];
	double b[4];
	for (int i = 0; i < 4; i++) {
		a[i] = (double)(i + 1);
	}
	kernel4(b, a, 2.0);
	print(checksum(b, 4), "\n");
	return 0;
}`
	_, stats := semanticsPreserved(t, src)
	if stats.Get("SLP Vectorizer", "# vector instructions generated") == 0 {
		t.Error("the restrict-qualified 4-wide kernel must SLP-vectorize")
	}
}

func TestSLPBlockedWithoutRestrict(t *testing.T) {
	src := `
void kernel4(double* out, double* in, double h) {
	out[0] = in[0] * h + 1.5;
	out[1] = in[1] * h + 1.5;
	out[2] = in[2] * h + 1.5;
	out[3] = in[3] * h + 1.5;
}
int main() {
	double a[8];
	for (int i = 0; i < 8; i++) {
		a[i] = (double)(i + 1);
	}
	kernel4(a + 1, a, 2.0);
	print(checksum(a, 8), "\n");
	return 0;
}`
	out, stats := semanticsPreserved(t, src)
	if stats.Get("SLP Vectorizer", "# vector instructions generated") != 0 {
		t.Error("overlapping (non-restrict) pointers must block SLP")
	}
	if out == "" {
		t.Fatal("no output")
	}
}

func TestOptimisticEnablesMore(t *testing.T) {
	// Through pointer parameters the baseline cannot vectorize; fully
	// optimistic ORAQL can (the arrays are truly disjoint, so the
	// output must be unchanged).
	src := `
void axpy(double* y, double* x, double a, int n) {
	for (int i = 0; i < n; i++) {
		y[i] = y[i] + x[i] * a;
	}
}
int main() {
	double x[64];
	double y[64];
	for (int i = 0; i < 64; i++) {
		x[i] = (double)i;
		y[i] = 1.0;
	}
	for (int r = 0; r < 4; r++) {
		axpy(y, x, 0.5, 64);
	}
	print(checksum(y, 64), "\n");
	return 0;
}`
	ref := runOut(t, compileO0(t, src))
	base, baseStats := compile(t, src, false)
	opt, optStats := compile(t, src, true)
	if got := runOut(t, base); got != ref {
		t.Fatalf("baseline broke semantics: %q vs %q", got, ref)
	}
	if got := runOut(t, opt); got != ref {
		t.Fatalf("optimistic broke semantics on a no-alias program: %q vs %q", got, ref)
	}
	bv := baseStats.Get("Loop Vectorizer", "# vectorized loops")
	ov := optStats.Get("Loop Vectorizer", "# vectorized loops")
	if ov <= bv {
		t.Errorf("optimism must enable more vectorization: %d -> %d", bv, ov)
	}
}

func TestSimplifyCFGFoldsConstBranch(t *testing.T) {
	src := `
int main() {
	int x = 3;
	if (x > 5) {
		print("big\n");
	} else {
		print("small\n");
	}
	return 0;
}`
	m, _ := compile(t, src, false)
	out := runOut(t, m)
	if out != "small\n" {
		t.Errorf("out = %q", out)
	}
	mainFn := m.FuncByName("main")
	if strings.Contains(mainFn.String(), "big") {
		t.Error("the dead branch should be folded away entirely")
	}
}

func TestMemCpyForwarding(t *testing.T) {
	src := `
int main() {
	double a[4];
	double b[4];
	a[0] = 1.25;
	a[1] = 2.25;
	memcpy(b, a, 32);
	print(b[0] + b[1], "\n");
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "3.5\n" {
		t.Errorf("out = %q", out)
	}
}

func TestSinkIntoBranch(t *testing.T) {
	src := `
int main() {
	double a[4];
	a[0] = 2.0;
	for (int i = 0; i < 10; i++) {
		double heavy = a[0] * 3.0 + 1.0;
		if (i == 9) {
			print(heavy, "\n");
		}
	}
	return 0;
}`
	out, _ := semanticsPreserved(t, src)
	if out != "7\n" {
		t.Errorf("out = %q", out)
	}
}

func TestO1PipelineAlsoSound(t *testing.T) {
	src := `
int main() {
	double a[16];
	for (int i = 0; i < 16; i++) {
		a[i] = (double)i * 1.5;
	}
	print(checksum(a, 16), "\n");
	return 0;
}`
	host, _, err := minic.Compile("test.mc", src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := runOut(t, compileO0(t, src))
	mgr := aa.NewManager(host, aa.DefaultChain(host)...)
	ctx := &passes.Context{Module: host, AA: mgr, Stats: passes.NewStats()}
	passes.O1Pipeline().Run(ctx)
	if err := ir.Verify(host); err != nil {
		t.Fatal(err)
	}
	if got := runOut(t, host); got != ref {
		t.Errorf("O1 changed semantics: %q vs %q", got, ref)
	}
}
