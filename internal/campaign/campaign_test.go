package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/report"
)

// run evaluates a script with test defaults and returns its value.
func run(t *testing.T, src string) any {
	t.Helper()
	res, err := Run(src, Options{})
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res.Value
}

func TestLanguageBasics(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"return 1 + 2 * 3", int64(7)},
		{"return (1 + 2) * 3", int64(9)},
		{"return 7 % 3", int64(1)},
		{"return 10 / 4", int64(2)},
		{"return 10.0 / 4", 2.5},
		{"return 1 < 2 && 2 < 3", true},
		{"return false || 3 >= 3", true},
		{"return !false", true},
		{"return -5 + 2", int64(-3)},
		{"return \"a\" + \"b\"", "ab"},
		{"return \"abc\" < \"abd\"", true},
		{"return 1 == 1.0", true},
		{"return [1, 2] == [1, 2]", true},
		{"return {a: 1} == {a: 1}", true},
		{"return nil == nil", true},
		{"let x = 4\nx = x + 1\nreturn x", int64(5)},
		{"let xs = [1, 2, 3]\nreturn xs[1]", int64(2)},
		{"let xs = [1, 2, 3]\nxs[0] = 9\nreturn xs[0] + len(xs)", int64(12)},
		{"let m = {a: 1, \"b c\": 2}\nreturn m.a + m[\"b c\"]", int64(3)},
		{"let m = {}\nm.x = 7\nreturn m.x", int64(7)},
		{"return {a: 1}.missing", nil},
		{"let s = 0\nfor i in range(5) { s = s + i }\nreturn s", int64(10)},
		{"let s = 0\nfor i in range(2, 5) { s = s + i }\nreturn s", int64(9)},
		{"let s = 0\nfor k in {b: 2, a: 1} { s = s + len(k) }\nreturn s", int64(2)},
		{"let i = 0\nwhile i < 10 { i = i + 2 }\nreturn i", int64(10)},
		{"let s = 0\nfor i in range(10) { if i == 3 { break }\n s = s + i }\nreturn s", int64(3)},
		{"let s = 0\nfor i in range(5) { if i % 2 == 0 { continue }\n s = s + i }\nreturn s", int64(4)},
		{"if 1 > 2 { return 1 } else if 2 > 2 { return 2 } else { return 3 }", int64(3)},
		{"return str(1 + 1) + str(true)", "2true"},
		{"return len(\"abcd\")", int64(4)},
		{"return keys({b: 1, a: 2})", []any{"a", "b"}},
		{"return append([1], 2, 3)", []any{int64(1), int64(2), int64(3)}},
		{"return [1] + [2]", []any{int64(1), int64(2)}},
		{"return contains([1, 2], 2)", true},
		{"return contains({a: 1}, \"a\")", true},
		{"return contains(\"hello\", \"ell\")", true},
		{"# comment\n// comment\nreturn 1 ; return 2", int64(1)},
		{"let x = 1\nif true { let x = 2 }\nreturn x", int64(1)},
		{"return", nil},
		{"let x = 3", nil}, // running off the end returns nil
	}
	for _, tc := range cases {
		got := run(t, tc.src)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(tc.want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("script %q = %s, want %s", tc.src, gj, wj)
		}
	}
}

func TestScriptErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"return x", "undefined name"},
		{"x = 1", "undeclared variable"},
		{"let if = 1", "keyword"},
		{"return 1 +", "unexpected"},
		{"return (1", `expected ")"`},
		{"if 1 { }", "condition must be a boolean"},
		{"return 1 / 0", "division by zero"},
		{"return 1 % 0", "modulo by zero"},
		{"return 1 + \"a\"", "needs two numbers"},
		{"return [1][5]", "out of range"},
		{"return [1][\"a\"]", "index must be an integer"},
		{"return {a: 1}[2]", "key must be a string"},
		{"return nil.field", "cannot read field"},
		{"break", "break outside a loop"},
		{"continue", "continue outside a loop"},
		{"return 5()", "not callable"},
		{"fail(\"boom\")", "fail: boom"},
		{"let s = \"unterminated", "unterminated string"},
		{"return 1 @ 2", "unexpected character"},
		{"while true { }", "instruction budget"},
		{"probe({config: \"no-such-app\"})", "unknown configuration"},
		{"probe({config: \"xsbench-seq\", bogus_knob: 1})", "unknown option"},
		{"probe({config: \"xsbench-seq\", strategy: \"no-such\"})", "unknown strategy"},
		{"probe({config: \"xsbench-seq\", aa_chain: \"no-such\"})", "unknown"},
		{"fuzz({grammar: \"no-such\"})", "unknown grammar"},
		{"compile({seq: \"banana\", config: \"xsbench-seq\"})", "bad seq"},
	}
	for _, tc := range cases {
		_, err := Run(tc.src, Options{MaxSteps: 10_000})
		if err == nil {
			t.Errorf("script %q: expected error containing %q, got nil", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("script %q: error %q does not contain %q", tc.src, err, tc.wantSub)
		}
		if !strings.Contains(err.Error(), "line ") && !strings.Contains(err.Error(), "context") {
			t.Errorf("script %q: error %q carries no line number", tc.src, err)
		}
	}
}

func TestStepBudget(t *testing.T) {
	res, err := Run("let s = 0\nfor i in range(100) { s = s + i }\nreturn s", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("expected a non-zero step count")
	}
	if _, err := Run("let s = 0\nfor i in range(100) { s = s + i }", Options{MaxSteps: 50}); err == nil ||
		!strings.Contains(err.Error(), "instruction budget") {
		t.Fatalf("tight budget: got %v, want budget error", err)
	}
}

func TestWallClockLimit(t *testing.T) {
	start := time.Now()
	_, err := Run("while true { let x = 1 }", Options{
		MaxSteps: 1 << 40,
		Timeout:  50 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "wall-clock limit") {
		t.Fatalf("got %v, want wall-clock limit error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s to fire", elapsed)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run("while true { let x = 1 }", Options{Ctx: ctx, MaxSteps: 1 << 40})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("got %v, want context canceled", err)
	}
}

func TestPrintOutput(t *testing.T) {
	var out bytes.Buffer
	_, err := Run(`print("hello", 1 + 1, [1, "a"], {k: nil})`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	want := "hello 2 [1, \"a\"] {k: nil}\n"
	if out.String() != want {
		t.Fatalf("print output %q, want %q", out.String(), want)
	}
}

func TestIntrospectionBindings(t *testing.T) {
	v := run(t, `return {
		strategies: strategies(),
		analyses: aa_analyses(),
		chains: aa_chains(),
		configs: app_configs(),
		grammars: grammars(),
	}`)
	m := v.(map[string]any)
	for key, min := range map[string]int{
		"strategies": 3, "analyses": 7, "chains": 2, "configs": 10, "grammars": 5,
	} {
		l, ok := m[key].([]any)
		if !ok || len(l) < min {
			t.Errorf("%s: got %v entries, want >= %d", key, m[key], min)
		}
	}
	// Every entry carries a name and a description.
	for _, e := range m["strategies"].([]any) {
		em := e.(map[string]any)
		if em["name"] == "" || em["description"] == "" {
			t.Errorf("strategy entry missing name/description: %v", em)
		}
	}
}

func TestBuiltinsHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Builtins() {
		if b.Name == "" || b.Doc == "" {
			t.Errorf("builtin %q has no doc", b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate builtin %q", b.Name)
		}
		seen[b.Name] = true
	}
	for _, name := range []string{"print", "probe", "compile", "fuzz", "sweep", "strategies"} {
		if !seen[name] {
			t.Errorf("missing builtin %q", name)
		}
	}
}

// canonical renders any value as key-sorted JSON for byte comparison,
// dropping the speculation-effort counters: with workers > 1 the
// number of compiles and cached/speculated/wasted tests depends on
// scheduling, while everything semantic — verdicts, FinalSeq, exe
// hashes, AA stats — is the deterministic contract under test.
func canonical(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var any1 any
	if err := json.Unmarshal(data, &any1); err != nil {
		t.Fatal(err)
	}
	if m, ok := any1.(map[string]any); ok {
		for _, k := range []string{"compiles", "tests_run", "tests_cached", "tests_disk", "tests_speculated", "tests_wasted"} {
			delete(m, k)
		}
	}
	out, err := json.Marshal(any1)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestGoldenEquivalence is the determinism contract: the scripted
// default campaign reproduces the compiled-in path byte-for-byte —
// verdicts, FinalSeq, and exe hashes — across app configs and worker
// counts {1, 8}.
func TestGoldenEquivalence(t *testing.T) {
	configs := []string{"xsbench-seq", "lulesh-seq", "minigmg-sse"}
	for _, workers := range []int{1, 8} {
		// Compiled-in path.
		var want []string
		for _, id := range configs {
			spec := apps.ByID(id).Spec()
			spec.Workers = workers
			res, err := driver.Probe(spec)
			if err != nil {
				t.Fatalf("compiled-in probe %s: %v", id, err)
			}
			want = append(want, canonical(t, report.NewProbeJSON(res)))
		}

		// Scripted path: same campaign, expressed as a .oraql script.
		script := `
			let results = []
			for cfg in ["xsbench-seq", "lulesh-seq", "minigmg-sse"] {
				results = append(results, probe({config: cfg}))
			}
			return results
		`
		res, err := Run(script, Options{Workers: workers})
		if err != nil {
			t.Fatalf("scripted campaign (workers=%d): %v", workers, err)
		}
		got, ok := res.Value.([]any)
		if !ok || len(got) != len(configs) {
			t.Fatalf("scripted campaign returned %T (%v), want %d results", res.Value, res.Value, len(configs))
		}
		for i, id := range configs {
			if g := canonical(t, got[i]); g != want[i] {
				t.Errorf("workers=%d %s: scripted result differs from compiled-in\n got: %s\nwant: %s",
					workers, id, g, want[i])
			}
		}
	}
}

// TestSweepBinding checks sweep() over an explicit config list matches
// per-config probe() calls.
func TestSweepBinding(t *testing.T) {
	v := run(t, `return sweep({configs: ["minigmg-sse"], workers: 2})`)
	l, ok := v.([]any)
	if !ok || len(l) != 1 {
		t.Fatalf("sweep returned %T %v, want 1-element list", v, v)
	}
	m := l[0].(map[string]any)
	if m["name"] != "minigmg-sse" {
		t.Errorf("sweep result name = %v", m["name"])
	}
	if m["exe_hash"] == "" || m["exe_hash"] == nil {
		t.Errorf("sweep result carries no exe_hash: %v", m)
	}
}

// TestCompileBinding checks a scripted single compilation and the
// result accessors scripts use for branching.
func TestCompileBinding(t *testing.T) {
	v := run(t, `
		let base = compile({config: "minigmg-sse"})
		let opt = compile({config: "minigmg-sse", oraql: true})
		if base.exe_hash == nil { fail("no exe_hash") }
		return [base.exe_hash != "", opt.oraql != nil]
	`)
	l := v.([]any)
	if l[0] != true || l[1] != true {
		t.Fatalf("compile binding results: %v", l)
	}
}

// TestFuzzBinding runs a tiny scripted fuzz campaign.
func TestFuzzBinding(t *testing.T) {
	v := run(t, `
		let r = fuzz({n: 2, seed: 1, grammar: "scalar", triage: false})
		return [r.programs, r.divergences == nil]
	`)
	l := v.([]any)
	if l[0] != int64(2) {
		t.Fatalf("fuzz programs = %v, want 2", l[0])
	}
	if l[1] != true {
		t.Fatalf("clean scalar fuzz diverged: %v", l)
	}
}

// TestCompileBatchEquivalence extends the golden-equivalence contract
// to the batch binding: compile_batch over a list with duplicates is
// byte-identical, item for item, to the loop-of-compile() equivalent,
// and duplicated items never alias one mutable script value. wall_ms
// is the only scrubbed field — the duplicate's looped twin recompiles,
// so its timing necessarily differs while everything semantic may not.
func TestCompileBatchEquivalence(t *testing.T) {
	script := `
		let items = [
			{config: "minigmg-sse"},
			{config: "xsbench-seq"},
			{config: "minigmg-sse"},
			{config: "minigmg-sse", oraql: true},
			{config: "xsbench-seq"},
		]
		let batched = compile_batch(items)
		let looped = []
		for it in items {
			looped = append(looped, compile(it))
		}
		return {batched: batched, looped: looped}
	`
	v := run(t, script)
	m := v.(map[string]any)
	batched := m["batched"].([]any)
	looped := m["looped"].([]any)
	if len(batched) != 5 || len(looped) != 5 {
		t.Fatalf("got %d batched, %d looped results, want 5 each", len(batched), len(looped))
	}
	// Duplicates (items 0 and 2) must be distinct values: mutating one
	// through its map must not leak into the other.
	b0 := batched[0].(map[string]any)
	b0["mutation_probe"] = true
	if _, leaked := batched[2].(map[string]any)["mutation_probe"]; leaked {
		t.Fatal("duplicate batch items alias one script value")
	}
	delete(b0, "mutation_probe")

	// The timing table is ordered by measured wall time, so both the
	// values and the row order jitter between runs: zero the one and
	// sort the other; pass/runs/changed stay under comparison.
	scrubWall := func(v any) {
		timing, _ := v.(map[string]any)["timing"].([]any)
		for _, e := range timing {
			if em, ok := e.(map[string]any); ok {
				em["wall_ms"] = 0
			}
		}
		sort.Slice(timing, func(i, j int) bool {
			pi, _ := timing[i].(map[string]any)["pass"].(string)
			pj, _ := timing[j].(map[string]any)["pass"].(string)
			return pi < pj
		})
	}
	for i := range batched {
		scrubWall(batched[i])
		scrubWall(looped[i])
		if g, w := canonical(t, batched[i]), canonical(t, looped[i]); g != w {
			t.Errorf("item %d: compile_batch result differs from compile loop\n got: %s\nwant: %s", i, g, w)
		}
	}
}

// TestOptionKeys pins how an option map decodes into a binding's
// declared keys: names match exactly (encoding/json would match them
// case-insensitively), values are type-checked by key, and a program
// given by config id accepts the source-only keys and ignores them, as
// the wire does.
func TestOptionKeys(t *testing.T) {
	for _, tc := range []struct {
		src     string
		wantSub string // "" = the call succeeds
	}{
		{`compile({Config: "minigmg-sse"})`, `compile: unknown option "Config"`},
		{`compile({config: "minigmg-sse", OPT_LEVEL: 1})`, `unknown option "OPT_LEVEL"`},
		{`fuzz({n: "1"})`, `option "n" must be an integer, got string`},
		{`fuzz({triage: 1})`, `option "triage" must be a boolean, got int`},
		{`sweep({configs: "minigmg-sse"})`, `option "configs" must be a list of strings, got string`},
		{`sweep({configs: [1]})`, `option "configs" must be a list of strings; element 0 is int`},
		{`warehouse_query({by: "pass", order: 1})`, `warehouse_query: unknown option "order"`},
		{`compile({config: "minigmg-sse"}, {})`, "at most one options map"},
		{`compile({config: "minigmg-sse", model: "openmp", name: "x.mc", fortran: true})`, ""},
		{`compile({})`, "program needs a config id or a source"},
	} {
		_, err := Run(tc.src, Options{MaxSteps: 10_000})
		switch {
		case tc.wantSub == "" && err != nil:
			t.Errorf("%s: %v", tc.src, err)
		case tc.wantSub != "" && (err == nil || !strings.Contains(err.Error(), tc.wantSub)):
			t.Errorf("%s: error %v, want one containing %q", tc.src, err, tc.wantSub)
		}
	}
}
