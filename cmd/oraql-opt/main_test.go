package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/cliutil"
)

func TestFailurePaths(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"no input file", nil, cliutil.ExitUsage},
		{"bad flag", []string{"prog.mc", "-definitely-not-a-flag"}, cliutil.ExitUsage},
		{"missing file", []string{"/nonexistent/prog.mc"}, cliutil.ExitFailure},
		{"unknown model", []string{"main_test.go", "-model", "warp"}, cliutil.ExitUsage},
		{"bad seq", []string{"main_test.go", "-opt-aa-seq", "maybe"}, cliutil.ExitUsage},
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

// -opt-aa-seq @file loads the sequence from a file; a missing file is
// a usage error.
func TestSeqResponseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seq.txt")
	if err := os.WriteFile(path, []byte("0 1 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	seq, err := parseSeqArg("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != "0 1 0" {
		t.Errorf("got %q", seq.String())
	}
	if _, err := parseSeqArg("@" + filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file must error")
	}
	err = run([]string{"../../examples/serve/sum.mc", "-opt-aa-seq", "@" + filepath.Join(dir, "missing")}, io.Discard, io.Discard)
	if got := cliutil.ExitCode(err); got != cliutil.ExitUsage {
		t.Errorf("missing sequence file: exit code %d, want %d (err: %v)", got, cliutil.ExitUsage, err)
	}
	if err := run([]string{"../../examples/serve/sum.mc", "-opt-aa-seq", "@" + path}, io.Discard, io.Discard); err != nil {
		t.Errorf("sequence file: %v", err)
	}
}

func TestCompileAndRun(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "prog.mc")
	src := `int main() {
	int x = 40;
	int y = 2;
	print(x + y, "\n");
	return 0;
}
`
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errW strings.Builder
	if err := run([]string{file, "-run"}, &out, &errW); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errW.String())
	}
	if !strings.Contains(out.String(), "42") {
		t.Fatalf("program output = %q, want 42", out.String())
	}
	if !strings.Contains(errW.String(), "exe hash:") {
		t.Fatalf("stderr missing exe hash: %q", errW.String())
	}
}

// -debug-pass prints one "Executing Pass" line per executed step to
// stderr, cold and with a -cache-dir that already holds the build's TU
// artifact, with ORAQL off and on: a compile that prints is never
// served from disk.
func TestDebugPassPrintsExecutions(t *testing.T) {
	const file = "../../examples/serve/sum.mc"
	dir := t.TempDir()
	for _, oraqlArgs := range [][]string{nil, {"-opt-aa"}} {
		cold := append([]string{file}, oraqlArgs...)
		warm := append(append([]string{}, cold...), "-cache-dir", dir)
		if err := run(warm, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, argv := range [][]string{cold, warm} {
			var errW strings.Builder
			if err := run(append(argv, "-debug-pass"), io.Discard, &errW); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(errW.String(), "Executing Pass '") {
				t.Errorf("%v -debug-pass printed no pass execution:\n%s", argv, errW.String())
			}
			if strings.Contains(errW.String(), "disk cache:") && !strings.Contains(errW.String(), "disk cache: 0 function hits") {
				t.Errorf("%v -debug-pass was served from disk:\n%s", argv, errW.String())
			}
		}
	}
}
