package aa_test

import (
	"fmt"
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

// checkCaptureAtEveryPrefix compiles cfg at every prefix of the -O3
// pipeline (as difftest triage does), without ORAQL and fully
// optimistic, and asks IsNonCaptured and the reference on every live
// alloca and __malloc of every function of the host and device
// modules. It returns the number of objects asked.
func checkCaptureAtEveryPrefix(t *testing.T, cfg pipeline.Config) int {
	t.Helper()
	asked := 0
	for stop := 1; stop <= len(passes.O3Pipeline().Passes); stop++ {
		for _, opts := range []*oraql.Options{nil, {}} {
			c := cfg
			c.StopAfter, c.ORAQL = stop, opts
			cr, err := pipeline.Compile(c)
			if err != nil {
				t.Fatalf("%s stop=%d oraql=%t: %v", cfg.Name, stop, opts != nil, err)
			}
			for _, ts := range []*pipeline.TargetStats{cr.Host, cr.Device} {
				if ts != nil {
					asked += compareCapture(t, ts.Module, fmt.Sprintf("%s %s stop=%d oraql=%t",
						cfg.Name, ts.Module.Target, stop, opts != nil))
				}
			}
		}
	}
	return asked
}

// compareCapture asks both capture checks on every live local object of
// m and reports each disagreement.
func compareCapture(t *testing.T, m *ir.Module, where string) int {
	t.Helper()
	asked := 0
	for _, fn := range m.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() || !aa.IsLocalObject(in) {
					continue
				}
				asked++
				if got, want := aa.IsNonCaptured(in), aa.IsNonCapturedRef(in); got != want {
					t.Errorf("%s: %s in %s: IsNonCaptured = %t, reference %t",
						where, in.Ident(), fn.Name, got, want)
				}
			}
		}
	}
	return asked
}

func TestIsNonCapturedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every config at every pipeline prefix")
	}
	for _, c := range apps.All() {
		t.Run(c.ID, func(t *testing.T) {
			n := checkCaptureAtEveryPrefix(t, c.Spec().Compile)
			if n == 0 {
				t.Fatal("no local object asked")
			}
			t.Logf("%d local objects asked", n)
		})
	}
}

func FuzzIsNonCapturedMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 123} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := progen.Generate(seed, progen.Options{})
		checkCaptureAtEveryPrefix(t, pipeline.Config{Name: "fuzz", Source: p.Source, SourceFile: p.FileName})
	})
}
