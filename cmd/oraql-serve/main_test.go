package main

import (
	"io"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/cliutil"
)

// -h prints the server's flags to stderr and exits 2, as it does on
// every oraql subcommand.
func TestHelpPrintsFlags(t *testing.T) {
	var stderr strings.Builder
	err := run([]string{"-h"}, io.Discard, &stderr)
	if got := cliutil.ExitCode(err); got != cliutil.ExitUsage {
		t.Errorf("-h: exit code %d, want %d (err: %v)", got, cliutil.ExitUsage, err)
	}
	for _, flag := range []string{"-addr", "-cache-dir", "-cache-max-mb"} {
		if !strings.Contains(stderr.String(), "\n  "+flag) {
			t.Errorf("-h does not list %s:\n%s", flag, stderr.String())
		}
	}
}
