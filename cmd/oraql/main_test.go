package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// TestFailurePaths pins the shared exit-code contract: 2 for caller
// mistakes (flags, subcommands, missing arguments), 1 for operational
// failures (unknown configurations, I/O).
func TestFailurePaths(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"no subcommand", nil, cliutil.ExitUsage},
		{"unknown subcommand", []string{"frobnicate"}, cliutil.ExitUsage},
		{"probe without target", []string{"probe"}, cliutil.ExitUsage},
		{"probe bad flag", []string{"probe", "-definitely-not-a-flag"}, cliutil.ExitUsage},
		{"probe bad strategy", []string{"probe", "lulesh-seq", "-strategy", "dowsing"}, cliutil.ExitUsage},
		{"probe unknown config", []string{"probe", "no-such-config"}, cliutil.ExitFailure},
		{"probe missing file", []string{"probe", "-file", "/nonexistent/prog.mc"}, cliutil.ExitFailure},
		{"probe bad model", []string{"probe", "-file", "main.go", "-model", "warp"}, cliutil.ExitUsage},
		{"report without id", []string{"report"}, cliutil.ExitUsage},
		{"report unknown config", []string{"report", "no-such-config"}, cliutil.ExitFailure},
		{"run without id", []string{"run"}, cliutil.ExitUsage},
		{"run unknown config", []string{"run", "no-such-config"}, cliutil.ExitFailure},
		{"run missing script", []string{"run", "/nonexistent/campaign.oraql"}, cliutil.ExitFailure},
		{"run script bad flag", []string{"run", "x.oraql", "-definitely-not-a-flag"}, cliutil.ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.argv, io.Discard, io.Discard)
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := cliutil.ExitCode(err); got != tc.want {
				t.Fatalf("exit code = %d, want %d (err: %v)", got, tc.want, err)
			}
		})
	}
}

// TestHelpPrintsFlags: -h on every subcommand prints that command's
// flags to stderr and exits 2, as a bad flag does.
func TestHelpPrintsFlags(t *testing.T) {
	cases := []struct {
		argv []string
		flag string // one flag the listing must name
	}{
		{[]string{"list"}, "-all"},
		{[]string{"probe"}, "-strategy"},
		{[]string{"report"}, "-json"},
		{[]string{"run"}, "-max-steps"},
		{[]string{"sweep"}, "-cache-max-mb"},
		{[]string{"opt"}, "-opt-aa-seq"},
		{[]string{"fuzz"}, "-inject"},
		{[]string{"tables"}, "-table"},
		{[]string{"warehouse", "ingest"}, "-grammar"},
		{[]string{"warehouse", "query"}, "-by"},
		{[]string{"warehouse", "export"}, "-alias-pairs"},
		{[]string{"warehouse", "stats"}, "-cache-dir"},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.argv[0]] = true
		var stderr strings.Builder
		err := run(append(c.argv, "-h"), io.Discard, &stderr)
		if got := cliutil.ExitCode(err); got != cliutil.ExitUsage {
			t.Errorf("%v -h: exit code %d, want %d (err: %v)", c.argv, got, cliutil.ExitUsage, err)
		}
		if !strings.Contains(stderr.String(), "\n  "+c.flag) {
			t.Errorf("%v -h does not list %s:\n%s", c.argv, c.flag, stderr.String())
		}
	}
	for name := range commands {
		if !covered[name] {
			t.Errorf("subcommand %q has no -h case", name)
		}
	}
}

func TestListSucceeds(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"list"}, &out, io.Discard); err != nil {
		t.Fatalf("list: %v", err)
	}
	if !strings.Contains(out.String(), "BENCHMARK") {
		t.Fatalf("list output missing header: %q", out.String())
	}
}

// TestRunCampaignScript pins the `oraql run <script.oraql>` surface:
// print() goes to stdout, the return value prints as indented JSON,
// and script errors carry their line number.
func TestRunCampaignScript(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "smoke.oraql")
	src := "print(\"hello\", 1 + 2)\nreturn {n: len(strategies())}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if err := run([]string{"run", path, "-json"}, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "hello 3") {
		t.Errorf("stdout missing print output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"n": 3`) {
		t.Errorf("stdout missing JSON return value:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "done") {
		t.Errorf("stderr missing completion line:\n%s", errw.String())
	}

	bad := filepath.Join(dir, "bad.oraql")
	if err := os.WriteFile(bad, []byte("let x = \nprobe()\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"run", bad}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("want a line-numbered script error, got %v", err)
	}
}

// TestRunCampaignMaxSteps pins the -max-steps budget on the CLI path.
func TestRunCampaignMaxSteps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spin.oraql")
	if err := os.WriteFile(path, []byte("while true { let x = 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"run", path, "-max-steps", "5000"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "instruction budget") {
		t.Fatalf("want an instruction-budget error, got %v", err)
	}
}

func TestProbeBadModelUsesSourceBeforeModelCheck(t *testing.T) {
	// -model validation happens after the file read, so use a file that
	// exists; main_test.go itself is fine — the model check fires first
	// in spec construction.
	err := run([]string{"probe", "-file", "main_test.go", "-model", "warp"}, io.Discard, io.Discard)
	if !cliutil.IsUsage(err) {
		t.Fatalf("want usage error, got %v", err)
	}
}

// -target restricts ORAQL for a config id as it does for -file and on
// the server; without it the config keeps its own target.
func TestProbeTargetAppliesToConfigIDs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"gridmini-offload", "-target", "x"}, "x"},
		{[]string{"gridmini-offload"}, "gpu"},
	} {
		pa, err := parseProbeArgs(c.args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := pa.req.Spec(driver.StrategyByName)
		if err != nil {
			t.Fatal(err)
		}
		if spec.ORAQL.Target != c.want {
			t.Errorf("probe %q: ORAQL.Target = %q, want %q", c.args, spec.ORAQL.Target, c.want)
		}
	}
}

// A warm rerun of `oraql probe -cache-dir` serves its baseline from a
// translation-unit artifact and its final build from the campaign set,
// and must still report the cold run's alias statistics.
func TestWarmProbeReportsColdAliasStats(t *testing.T) {
	dir := t.TempDir()
	probe := func() map[string]any {
		t.Helper()
		var out strings.Builder
		if err := run([]string{"probe", "lulesh-seq", "-j", "1", "-cache-dir", dir, "-json"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		var res map[string]any
		if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
			t.Fatalf("probe -json: %v\n%s", err, out.String())
		}
		return res
	}
	cold, warm := probe(), probe()
	for _, key := range []string{"no_alias_orig", "no_alias_oraql", "aa"} {
		c, w := fmt.Sprint(cold[key]), fmt.Sprint(warm[key])
		if c != w {
			t.Errorf("%s: warm rerun printed %s, cold run %s", key, w, c)
		}
	}
	if n, _ := cold["no_alias_orig"].(float64); n == 0 {
		t.Errorf("cold run printed no_alias_orig 0")
	}
}

// TestWarehouseIngestLabelsDefaultGrammar: archived fuzz findings
// ingested without -grammar are filed under the default profile, as a
// fuzz campaign files its own; an unregistered profile is refused.
func TestWarehouseIngestLabelsDefaultGrammar(t *testing.T) {
	req := request.FuzzRequest{N: 10, Seed: 1, Workers: 1, Inject: true, NoTriage: true, MaxDivergences: 1}
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := difftest.Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 1 {
		t.Fatalf("fuzz campaign found %d divergences, want 1", len(res.Divergences))
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(report, data, 0o644); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	err = run([]string{"warehouse", "ingest", "-cache-dir", dir, "-grammar", "no-such-grammar", report}, io.Discard, io.Discard)
	if got := cliutil.ExitCode(err); got != cliutil.ExitUsage {
		t.Fatalf("ingest with an unknown grammar: exit code %d, want %d (err: %v)", got, cliutil.ExitUsage, err)
	}
	if err := run([]string{"warehouse", "ingest", "-cache-dir", dir, report}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"warehouse", "query", "-cache-dir", dir, "-by", "grammar"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rows []warehouse.Recurrence
	if err := json.Unmarshal([]byte(out.String()), &rows); err != nil {
		t.Fatalf("query output %q: %v", out.String(), err)
	}
	if len(rows) != 1 || rows[0].Key != progen.DefaultGrammar || rows[0].Records != 1 {
		t.Fatalf("query -by grammar = %s, want one %q group of 1 record", out.String(), progen.DefaultGrammar)
	}
}

// TestFlagsAfterArguments pins the one argument rule of every
// subcommand: flags may come before or after the positional arguments,
// "--" ends flag parsing, and a command that takes one argument rejects
// extras as a usage error.
func TestFlagsAfterArguments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"sweep", "lulesh-seq", "-json"}, &out, io.Discard); err != nil {
		t.Fatalf("sweep lulesh-seq -json: %v", err)
	}
	var res sweepResult
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("sweep output is not JSON: %v\n%s", err, out.String())
	}
	if len(res.Configs) != 1 || res.Configs[0].ID != "lulesh-seq" {
		t.Fatalf("sweep lulesh-seq -json swept %+v, want lulesh-seq alone", res.Configs)
	}

	const sum = "../../examples/serve/sum.mc"
	out.Reset()
	if err := run([]string{"opt", "-stats", sum}, &out, io.Discard); err != nil {
		t.Fatalf("opt -stats %s: %v", sum, err)
	}
	if !strings.Contains(out.String(), "Statistics") {
		t.Errorf("opt -stats before the file printed no statistics:\n%s", out.String())
	}

	for _, argv := range [][]string{
		{"opt", sum, "-stats", "extra"},
		{"opt", "-stats", "--", sum, "-print-ir"},
		{"run", "lulesh-seq", "extra"},
		{"report", "lulesh-seq", "extra"},
		{"probe", "lulesh-seq", "-j", "1", "extra"},
		{"warehouse", "export", "lulesh-seq", "extra"},
		{"list", "extra"},
	} {
		err := run(argv, io.Discard, io.Discard)
		if got := cliutil.ExitCode(err); got != cliutil.ExitUsage {
			t.Errorf("%v: exit code %d, want %d (err: %v)", argv, got, cliutil.ExitUsage, err)
		}
	}
}
