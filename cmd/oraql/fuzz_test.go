package main

import (
	"io"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/request"
)

func TestFuzzFailurePaths(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"bad flag", []string{"fuzz", "-definitely-not-a-flag"}, cliutil.ExitUsage},
		{"unexpected positional", []string{"fuzz", "extra"}, cliutil.ExitUsage},
		{"bad n value", []string{"fuzz", "-n", "many"}, cliutil.ExitUsage},
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

func TestTinyCleanCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a variant matrix")
	}
	// One generated program across the full variant matrix: must be
	// divergence-free at head and exit 0.
	if err := run([]string{"fuzz", "-n", "1", "-seed", "7"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("clean campaign: %v", err)
	}
}

// -seed 0 fuzzes from seed 0 on the command line, while the wire reads
// a zero seed as unset, seed 1. Under injection seed 1 diverges and
// seed 0 does not, so a one-program campaign tells them apart.
func TestFuzzSeedZero(t *testing.T) {
	err := run([]string{"fuzz", "-inject", "-n", "1", "-seed", "0"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "produced no divergence") {
		t.Errorf("oraql fuzz -seed 0: want seed 0 alone, which does not diverge; got %v", err)
	}
	opts, err := (&request.FuzzRequest{N: 1, Inject: true, NoTriage: true}).Options()
	if err != nil {
		t.Fatal(err)
	}
	res, err := difftest.Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Divergences) != 1 || res.Divergences[0].Seed != 1 {
		t.Errorf("wire seed 0: want seed 1's divergence, got %d divergences", len(res.Divergences))
	}
}
