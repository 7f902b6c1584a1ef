package cliutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain", errors.New("boom"), ExitFailure},
		{"usage", Usagef("bad flag"), ExitUsage},
		{"wrapped usage", fmt.Errorf("outer: %w", Usagef("inner")), ExitUsage},
		{"wrapusage", WrapUsage(errors.New("flag: help requested")), ExitUsage},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: ExitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestWrapUsageNil(t *testing.T) {
	if WrapUsage(nil) != nil {
		t.Fatal("WrapUsage(nil) should stay nil")
	}
}

func TestUsageUnwrap(t *testing.T) {
	inner := errors.New("inner")
	if !errors.Is(WrapUsage(inner), inner) {
		t.Fatal("WrapUsage should unwrap to the original error")
	}
}

func TestReportProse(t *testing.T) {
	var buf strings.Builder
	code := Report(&buf, "oraql", false, errors.New("no such config"))
	if code != ExitFailure {
		t.Fatalf("code = %d, want %d", code, ExitFailure)
	}
	if got := buf.String(); got != "oraql: no such config\n" {
		t.Fatalf("prose output = %q", got)
	}
}

func TestReportJSONEnvelope(t *testing.T) {
	var buf strings.Builder
	code := Report(&buf, "oraql-serve", true, Usagef("unknown model %q", "gpu2"))
	if code != ExitUsage {
		t.Fatalf("code = %d, want %d", code, ExitUsage)
	}
	var env Envelope
	if err := json.Unmarshal([]byte(buf.String()), &env); err != nil {
		t.Fatalf("envelope is not one JSON object: %v (%q)", err, buf.String())
	}
	if env.Tool != "oraql-serve" || env.Code != ExitUsage || !strings.Contains(env.Error, "gpu2") {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestReportNil(t *testing.T) {
	var buf strings.Builder
	if code := Report(&buf, "oraql", true, nil); code != ExitOK {
		t.Fatalf("code = %d, want 0", code)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil error should print nothing, got %q", buf.String())
	}
}

func TestWantsJSON(t *testing.T) {
	cases := []struct {
		argv []string
		want bool
	}{
		{nil, false},
		{[]string{"probe", "cfg"}, false},
		{[]string{"probe", "-json"}, true},
		{[]string{"--json"}, true},
		{[]string{"-json=out.json"}, true},
		{[]string{"--json=-"}, true},
		{[]string{"json"}, false},     // bare positional, not a flag
		{[]string{"-jsonish"}, false}, // prefix but not the flag
		{[]string{"-v", "-json", "x"}, true},
	}
	for _, tc := range cases {
		if got := WantsJSON(tc.argv); got != tc.want {
			t.Errorf("WantsJSON(%v) = %v, want %v", tc.argv, got, tc.want)
		}
	}
}

func TestParseFlagsAnywhere(t *testing.T) {
	cases := []struct {
		args []string
		v    bool
		n    int
		pos  []string
	}{
		{[]string{"a", "-v", "b", "-n", "3"}, true, 3, []string{"a", "b"}},
		{[]string{"-n", "2", "a"}, false, 2, []string{"a"}},
		{[]string{"a", "--", "-v", "b"}, false, 0, []string{"a", "-v", "b"}},
		{[]string{"-", "-v"}, true, 0, []string{"-"}},
		{[]string{"--", "--"}, false, 0, []string{"--"}},
		{nil, false, 0, nil},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		v := fs.Bool("v", false, "")
		n := fs.Int("n", 0, "")
		if err := Parse(fs, tc.args, io.Discard); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if *v != tc.v || *n != tc.n || !slices.Equal(fs.Args(), tc.pos) {
			t.Errorf("%q: -v %t -n %d args %q, want %t %d %q", tc.args, *v, *n, fs.Args(), tc.v, tc.n, tc.pos)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	if err := Parse(fs, []string{"a", "-bogus"}, io.Discard); ExitCode(err) != ExitUsage {
		t.Errorf("a bad flag after an argument: %v, want a usage error", err)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	if err := Parse(fs, []string{"a"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := MaxArgs(fs, 0); ExitCode(err) != ExitUsage {
		t.Errorf("MaxArgs(0) with one argument: %v, want a usage error", err)
	}
}
