package pipeline

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
)

func run(t *testing.T, cfg Config) (*CompileResult, *irinterp.Result) {
	t.Helper()
	cr, err := Compile(cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rr, err := irinterp.Run(cr.Program, irinterp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cr, rr
}

const helloSrc = `
int main() {
	double a[8];
	for (int i = 0; i < 8; i++) {
		a[i] = (double)i * 2.0;
	}
	double s = 0.0;
	for (int i = 0; i < 8; i++) {
		s = s + a[i];
	}
	print("sum=", s, "\n");
	return 0;
}
`

func TestHelloSequential(t *testing.T) {
	_, rr := run(t, Config{Name: "hello", Source: helloSrc})
	if want := "sum=56\n"; rr.Stdout != want {
		t.Fatalf("stdout = %q, want %q", rr.Stdout, want)
	}
}

func TestHelloUnoptimizedMatchesOptimized(t *testing.T) {
	for _, model := range []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelTasks, minic.ModelOffload} {
		cfg := Config{Name: "hello", Source: strings.Replace(helloSrc, "for (int i = 0; i < 8; i++) {\n\t\ta[i] = (double)i * 2.0;\n\t}", "parallel for (i = 0; i < 8; i++) { a[i] = (double)i * 2.0; }", 1),
			Frontend: minic.Options{Model: model}}
		_, rr := run(t, cfg)
		if want := "sum=56\n"; rr.Stdout != want {
			t.Fatalf("model %d: stdout = %q, want %q", model, rr.Stdout, want)
		}
	}
}

func TestFullyOptimisticHello(t *testing.T) {
	cfg := Config{Name: "hello", Source: helloSrc, ORAQL: &oraql.Options{}}
	cr, rr := run(t, cfg)
	if want := "sum=56\n"; rr.Stdout != want {
		t.Fatalf("stdout = %q, want %q", rr.Stdout, want)
	}
	st := cr.ORAQLStats()
	t.Logf("oraql: unique=%d cached=%d", st.Unique(), st.Cached())
	t.Logf("no-alias total: %d, instrs: %d", cr.NoAliasTotal(), rr.Instrs)
}

// TestBlockingModeDual measures the Section VIII dual limit study: with
// the whole analysis chain blocked, the compiled program must still be
// correct but strictly less optimized than the baseline.
func TestBlockingModeDual(t *testing.T) {
	src := `
int main() {
	double a[32];
	double b[32];
	for (int i = 0; i < 32; i++) {
		a[i] = (double)i;
	}
	for (int i = 0; i < 32; i++) {
		b[i] = a[i] * 2.0;
	}
	print(checksum(b, 32), "\n");
	return 0;
}`
	base, brr := run(t, Config{Name: "dual", Source: src})
	blocked, krr := run(t, Config{Name: "dual", Source: src,
		ORAQL: &oraql.Options{Mode: oraql.ModeBlocking}})
	if brr.Stdout != krr.Stdout {
		t.Fatalf("blocking mode must preserve semantics: %q vs %q", brr.Stdout, krr.Stdout)
	}
	if krr.Instrs <= brr.Instrs {
		t.Errorf("blocking all alias analyses must cost performance: baseline %d, blocked %d",
			brr.Instrs, krr.Instrs)
	}
	s := blocked.ORAQLStats()
	if s.UniquePessimistic == 0 || s.UniqueOptimistic != 0 {
		t.Errorf("blocking stats: %+v", s)
	}
	_ = base
}

// TestMustAliasOptimismMode exercises the Section VIII open question:
// answering leftover queries must-alias. On a program whose leftover
// pairs truly are distinct, full must-alias optimism miscompiles (the
// forwarding it unlocks is wrong), which the verification detects —
// the same workflow as the no-alias mode.
func TestMustAliasOptimismMode(t *testing.T) {
	src := `
void combine(double* a, double* b, int n) {
	for (int i = 0; i < n; i++) {
		a[i] = a[i] + b[i];
	}
}
int main() {
	double x[16];
	double y[16];
	for (int i = 0; i < 16; i++) {
		x[i] = (double)i;
		y[i] = 100.0;
	}
	combine(x, y, 16);
	print(checksum(x, 16), "\n");
	return 0;
}`
	_, ref := run(t, Config{Name: "must", Source: src})
	cr, err := Compile(Config{Name: "must", Source: src,
		ORAQL: &oraql.Options{Mode: oraql.ModeOptimisticMust}})
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := irinterp.Run(cr.Program, irinterp.Options{})
	// Either outcome demonstrates the mode is live: a changed output
	// (miscompile caught by verification) or an identical one (the
	// must-alias answers were not acted upon). It must at least have
	// answered queries.
	if cr.ORAQLStats().Unique() == 0 {
		t.Fatal("must-alias mode answered no queries")
	}
	if gerr == nil && got.Stdout == ref.Stdout {
		t.Log("must-alias optimism was benign on this program")
	} else {
		t.Logf("must-alias optimism broke the program as expected (err=%v)", gerr)
	}
}

// TestWideConstantsStayDistinct pins the CSE keying of constants: a
// constant's VID keeps only the low 32 bits of its value, so keying
// expressions by operand VID alone merged x+1 with x+4294967297.
func TestWideConstantsStayDistinct(t *testing.T) {
	const src = `int G = 7; int main() { int x = G; int a = x + 1; int b = x + 4294967297; print(a); print(b); return 0; }`
	for _, lvl := range []int{-1, 3} {
		_, rr := run(t, Config{Name: "wide", Source: src, OptLevel: lvl})
		if want := "84294967304"; rr.Stdout != want {
			t.Errorf("OptLevel %d: stdout = %q, want %q", lvl, rr.Stdout, want)
		}
	}
}
