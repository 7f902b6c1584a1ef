package driver

// The fully optimistic test runs beside the baseline on a campaign with
// more than one worker and core and no store. These tests run each
// campaign at workers 1 and 2 and check, through baselineHook, that the
// overlapped path is taken exactly when GOMAXPROCS > 1. Results and
// failures must not depend on the worker count, and no goroutine may
// outlive ProbeContext.

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"runtime"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// trapSrc divides by zero at run time, so its baseline run traps.
const trapSrc = `
int main() {
	int a[4];
	for (int i = 0; i < 4; i++) {
		a[i] = i;
	}
	int z = a[0];
	print(16 / z, "\n");
	return 0;
}
`

// probeAt probes spec under ctx at the given worker count and checks
// that the campaign took the overlapped path exactly when it should
// and left no goroutine behind. onBaseline, when set, runs between the
// baseline compile and the baseline run.
func probeAt(t *testing.T, ctx context.Context, workers int, spec *BenchSpec, onBaseline func()) (*Result, error) {
	t.Helper()
	spec.Workers = workers
	want := workers > 1 && runtime.GOMAXPROCS(0) > 1 && spec.Cache == nil
	var overlapped, hooked bool
	baselineHook = func(o bool) {
		hooked, overlapped = true, o
		if onBaseline != nil {
			onBaseline()
		}
	}
	defer func() { baselineHook = nil }()

	before := runtime.NumGoroutine()
	res, err := ProbeContext(ctx, spec)
	if !hooked {
		t.Fatalf("workers=%d: the baseline never ran: %v", workers, err)
	}
	if overlapped != want {
		t.Errorf("workers=%d GOMAXPROCS=%d: overlapped = %v, want %v",
			workers, runtime.GOMAXPROCS(0), overlapped, want)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Errorf("workers=%d: %d goroutines before the probe, %d after it returned", workers, before, n)
	}
	return res, err
}

// goroutinesAtMost waits up to a second for the goroutine count to
// fall to n, for goroutines that have finished their work but not yet
// exited, and returns the last count.
func goroutinesAtMost(n int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverlapFailurePaths: a baseline that traps, one that fails the
// caller's references, and a probe cancelled during the baseline run
// return the same error at workers 1 and 2, with the overlapped test
// cancelled and joined.
func TestOverlapFailurePaths(t *testing.T) {
	cases := []struct {
		name     string
		spec     func() *BenchSpec
		cancel   bool // cancel the probe during the baseline run
		wantText string
	}{
		{
			name:     "baseline traps",
			spec:     func() *BenchSpec { return &BenchSpec{Name: "trap", Compile: pipeline.Config{Source: trapSrc}} },
			wantText: "driver: baseline run failed: simulated trap: integer division by zero",
		},
		{
			name: "references not met",
			spec: func() *BenchSpec {
				spec := &BenchSpec{Name: "nohazard", Compile: pipeline.Config{Source: noHazardSrc}}
				spec.Verify.References = []string{"this will never match\n"}
				return spec
			},
		},
		{
			name:   "cancelled during the baseline run",
			spec:   func() *BenchSpec { return &BenchSpec{Name: "hello", Compile: pipeline.Config{Source: helloSrc}} },
			cancel: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := map[int]error{}
			for _, workers := range []int{1, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				var onBaseline func()
				if tc.cancel {
					onBaseline = cancel
				}
				res, err := probeAt(t, ctx, workers, tc.spec(), onBaseline)
				cancel()
				if err == nil {
					t.Fatalf("workers=%d: probe succeeded (FinalSeq %q), want an error", workers, res.FinalSeq)
				}
				if got := errors.Is(err, context.Canceled); got != tc.cancel {
					t.Errorf("workers=%d: err = %v; errors.Is(err, context.Canceled) = %v, want %v",
						workers, err, got, tc.cancel)
				}
				if tc.wantText != "" && err.Error() != tc.wantText {
					t.Errorf("workers=%d: err = %q, want %q", workers, err, tc.wantText)
				}
				errs[workers] = err
			}
			if errs[1].Error() != errs[2].Error() {
				t.Errorf("errors differ:\nworkers=1: %v\nworkers=2: %v", errs[1], errs[2])
			}
		})
	}
}

var passTime = regexp.MustCompile(`in [0-9.]+ms`)

// TestOverlapKeepsResults: at workers 1 and 2, a fully optimistic
// campaign logs the same lines and counts the same compiles, with
// nothing speculated, and a bisected one finds the same sequence with
// the same consumed tests; both overlap on more than one core. A
// campaign with a store never overlaps. TestParallelProbeIsDeterministic
// compares the baseline and final builds across worker counts.
func TestOverlapKeepsResults(t *testing.T) {
	for _, src := range []struct{ name, text string }{{"nohazard", noHazardSrc}, {"hello", helloSrc}} {
		t.Run(src.name, func(t *testing.T) {
			var seqLog, parLog bytes.Buffer
			seq, err := probeAt(t, context.Background(), 1, &BenchSpec{Name: src.name, Compile: pipeline.Config{Source: src.text}, Log: &seqLog}, nil)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			par, err := probeAt(t, context.Background(), 2, &BenchSpec{Name: src.name, Compile: pipeline.Config{Source: src.text}, Log: &parLog}, nil)
			if err != nil {
				t.Fatalf("workers=2: %v", err)
			}
			if par.FullyOptimistic != seq.FullyOptimistic || par.FinalSeq.String() != seq.FinalSeq.String() {
				t.Errorf("workers=2: fully optimistic %v, FinalSeq %q; workers=1: %v, %q",
					par.FullyOptimistic, par.FinalSeq, seq.FullyOptimistic, seq.FinalSeq)
			}
			if got, want := par.TestsRun+par.TestsCached, seq.TestsRun+seq.TestsCached; got != want {
				t.Errorf("consumed tests: workers=2 %d, workers=1 %d", got, want)
			}
			if !seq.FullyOptimistic {
				return
			}
			if par.TestsSpeculated != 0 || par.Compiles != seq.Compiles {
				t.Errorf("workers=2: %d speculated, %d compiles; workers=1: %d compiles",
					par.TestsSpeculated, par.Compiles, seq.Compiles)
			}
			// The final compile's line reports its wall time.
			a := passTime.ReplaceAllString(seqLog.String(), "in ?ms")
			b := passTime.ReplaceAllString(parLog.String(), "in ?ms")
			if a != b {
				t.Errorf("logs differ:\nworkers=1:\n%s\nworkers=2:\n%s", a, b)
			}
		})
	}

	t.Run("store", func(t *testing.T) {
		cache, err := diskcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		spec := &BenchSpec{Name: "nohazard", Compile: pipeline.Config{Source: noHazardSrc}, Cache: cache}
		if _, err := probeAt(t, context.Background(), 2, spec, nil); err != nil {
			t.Fatal(err)
		}
	})
}
