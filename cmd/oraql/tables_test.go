package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/cliutil"
)

func TestTablesFailurePaths(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"bad flag", []string{"tables", "-definitely-not-a-flag"}, cliutil.ExitUsage},
		{"unexpected positional", []string{"tables", "fig4"}, cliutil.ExitUsage},
		{"unknown table", []string{"tables", "-table", "fig99"}, cliutil.ExitUsage},
		{"unknown config", []string{"tables", "-table", "fig4", "-configs", "no-such-config"}, cliutil.ExitFailure},
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

func TestFig5IsStatic(t *testing.T) {
	// fig5 renders without probing anything, so it must stay cheap.
	var out strings.Builder
	if err := run([]string{"tables", "-table", "fig5"}, &out, io.Discard); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("fig5 printed nothing")
	}
}

// TestEffortTableMatchesGolden runs the effort table the way a user
// does and compares its rows with the report package's effort golden,
// which TestFullEvaluation pins through the same report.RunAll path.
func TestEffortTableMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../internal/report/testdata/golden/effort.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			want[f[0]] = strings.Join(f, " ")
		}
	}
	var out strings.Builder
	if err := run([]string{"tables", "-table", "effort", "-configs", "lulesh-seq,minigmg-sse"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != "lulesh-seq" && f[0] != "minigmg-sse") {
			continue
		}
		rows++
		// Column widths follow the printed rows, so compare fields.
		if got := strings.Join(f, " "); got != want[f[0]] {
			t.Errorf("effort row\n got  %s\n want %s", got, want[f[0]])
		}
	}
	if rows != 2 {
		t.Fatalf("printed %d of the 2 rows:\n%s", rows, out.String())
	}
}
