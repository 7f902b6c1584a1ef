package campaign

import (
	"bytes"
	"strings"
	"testing"
)

func runScript(t *testing.T, src string, opts Options) (*Result, string) {
	t.Helper()
	var out bytes.Buffer
	if opts.Out == nil {
		opts.Out = &out
	}
	res, err := Run(src, opts)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return res, out.String()
}

func runExpectError(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := Run(src, Options{})
	if err == nil {
		t.Fatalf("script succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestFnLiteralsAndClosures(t *testing.T) {
	res, _ := runScript(t, `
		let add = fn(a, b) { return a + b }
		let make_counter = fn() {
			let n = 0
			return fn() {
				n = n + 1
				return n
			}
		}
		let c = make_counter()
		c()
		c()
		let fact = fn(n) {
			if n <= 1 { return 1 }
			return n * fact(n - 1)
		}
		let apply = fn(f, x) { return f(x, x) }
		return [add(2, 3), c(), fact(5), apply(add, 7), str(add)]
	`, Options{})
	got, ok := res.Value.([]any)
	if !ok || len(got) != 5 {
		t.Fatalf("result = %#v, want 5-element list", res.Value)
	}
	want := []any{int64(5), int64(3), int64(120), int64(14), "fn(a, b)"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result[%d] = %#v, want %#v", i, got[i], want[i])
		}
	}
}

func TestFnErrors(t *testing.T) {
	runExpectError(t, `let f = fn(a) { return a }
		f(1, 2)`, "takes 1 argument(s), got 2")
	runExpectError(t, `let f = fn() { break }
		f()`, "break outside a loop")
	runExpectError(t, `let x = 1
		x(2)`, "int is not callable")
	// A function that runs off its end returns nil.
	res, _ := runScript(t, `
		let f = fn() { let x = 1 }
		return f() == nil
	`, Options{})
	if res.Value != true {
		t.Errorf("bare function returned %#v, want nil", res.Value)
	}
}

func TestFnParseErrors(t *testing.T) {
	for _, c := range []struct{ src, wantSub string }{
		{`let f = fn(a, a) { return a }`, "duplicate parameter"},
		{`let f = fn(for) { return 1 }`, "expected parameter name"},
		{`let fn = 3`, `cannot use keyword "fn"`},
		{`let f = fn(a) return a`, `expected "{"`},
	} {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.wantSub)
		}
	}
}

// Unbounded recursion must die on the call-depth limit — a script
// error, not a Go stack overflow.
func TestFnCallDepthLimit(t *testing.T) {
	runExpectError(t, `
		let loop = fn(n) { return loop(n + 1) }
		loop(0)
	`, "call depth limit exceeded")
}

func TestProbeBindingsRequireStrategyContext(t *testing.T) {
	for _, call := range []string{
		"probe_test([true])", "probe_pad([])",
		"probe_workers()",
	} {
		runExpectError(t, call, "only available inside a strategy function")
	}
}

func TestRegisterStrategyValidation(t *testing.T) {
	runExpectError(t, `register_strategy(3, fn(n) { return [] })`, "name must be a string")
	runExpectError(t, `register_strategy("x", 3)`, "must be a function")
	runExpectError(t, `register_strategy("x", fn(a, b) { return [] })`, "exactly one parameter")
	runExpectError(t, `register_strategy("chunked", fn(n) { return [] })`, `"chunked" already registered`)
	runExpectError(t, `
		register_strategy("mine", fn(n) { return [] })
		register_strategy("mine", fn(n) { return [] })
	`, `duplicate entry "mine"`)
	runExpectError(t, `probe({config: "minigmg-sse", strategy: "nowhere"})`, "unknown strategy")
}

// register_strategy entries live in a per-run overlay: visible to the
// run's strategies() listing, invisible to other runs and to the
// global table.
func TestRegisterStrategyIsRunScoped(t *testing.T) {
	res, _ := runScript(t, `
		let before = len(strategies())
		register_strategy("scoped", fn(n) { return [] })
		let names = []
		for s in strategies() {
			names = append(names, s.name)
		}
		return {before: before, after: len(names), has: contains(names, "scoped")}
	`, Options{})
	m := res.Value.(map[string]any)
	if m["has"] != true {
		t.Fatalf("strategies() does not list the registered strategy: %#v", m)
	}
	if m["after"] != m["before"].(int64)+1 {
		t.Fatalf("overlay added %d - %d entries, want 1", m["after"], m["before"])
	}

	// A fresh run must not see the previous run's registration.
	res2, _ := runScript(t, `
		let names = []
		for s in strategies() {
			names = append(names, s.name)
		}
		return contains(names, "scoped")
	`, Options{})
	if res2.Value != false {
		t.Fatal("script-registered strategy leaked into a later run")
	}
}

// A scripted strategy probes end-to-end through the driver and must
// reproduce the compiled-in linear strategy byte-for-byte when it
// issues the same tests.
func TestScriptStrategyMatchesCompiledLinear(t *testing.T) {
	script := `
		register_strategy("mine", fn(n) {
			if probe_workers() < 1 {
				fail("bad worker count")
			}
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
		let mine = probe({config: "minife-openmp", strategy: "mine"})
		let ref = probe({config: "minife-openmp", strategy: "linear"})
		return {
			same_seq: mine.final_seq == ref.final_seq,
			same_exe: mine.exe_hash == ref.exe_hash,
			convictions: len(mine.guilty_queries),
		}
	`
	res, _ := runScript(t, script, Options{})
	m := res.Value.(map[string]any)
	if m["same_seq"] != true || m["same_exe"] != true {
		t.Fatalf("scripted strategy diverged from compiled-in linear: %#v", m)
	}
	// The strategy must actually have been exercised: minife-openmp
	// convicts (it is not on the fully-optimistic fast path, which
	// would skip Solve entirely).
	if m["convictions"].(int64) == 0 {
		t.Fatalf("minife-openmp should convict at least one query: %#v", m)
	}
}

// A strategy whose callback returns garbage must surface a script
// error from probe, not corrupt the campaign. The config must convict
// — a fully-optimistic program resolves on the fast path and never
// invokes the strategy.
func TestScriptStrategyBadReturn(t *testing.T) {
	runExpectError(t, `
		register_strategy("broken", fn(n) { return "nope" })
		probe({config: "minife-openmp", strategy: "broken"})
	`, "expected a list of booleans")
	runExpectError(t, `
		register_strategy("short", fn(n) { return [true] })
		probe({config: "minife-openmp", strategy: "short"})
	`, "returned 1 decision bits")
}
