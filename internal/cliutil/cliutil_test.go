package cliutil

import (
	"encoding/json"
	"errors"
	"fmt"
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
	code := Report(&buf, "oraql-opt", true, Usagef("unknown model %q", "gpu2"))
	if code != ExitUsage {
		t.Fatalf("code = %d, want %d", code, ExitUsage)
	}
	var env Envelope
	if err := json.Unmarshal([]byte(buf.String()), &env); err != nil {
		t.Fatalf("envelope is not one JSON object: %v (%q)", err, buf.String())
	}
	if env.Tool != "oraql-opt" || env.Code != ExitUsage || !strings.Contains(env.Error, "gpu2") {
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
