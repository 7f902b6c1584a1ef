package main

import (
	"io"
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
