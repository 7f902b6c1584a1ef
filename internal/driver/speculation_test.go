package driver_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
)

// TestSpeculationPolicy: at workers 8, a campaign keeps at most one
// speculative test in flight and launches none after the first is
// cancelled mid-flight. It speculates only on more than one core.
func TestSpeculationPolicy(t *testing.T) {
	var (
		mu                sync.Mutex
		launches, cancels int
		violations        []string
	)
	driver.SetSpecHook(func(launched bool, inFlight int64) {
		mu.Lock()
		defer mu.Unlock()
		if !launched {
			cancels++
			return
		}
		launches++
		if inFlight > 1 {
			violations = append(violations, fmt.Sprintf("launch %d: %d speculative tests in flight", launches, inFlight))
		}
		if cancels > 0 {
			violations = append(violations, fmt.Sprintf("launch %d after a mid-flight cancellation", launches))
		}
	})
	defer driver.SetSpecHook(nil)

	var totalLaunches, totalCancels int
	for _, id := range []string{"lulesh-seq", "lulesh-mpi", "testsnap-openmp", "xsbench-seq"} {
		for _, strat := range []driver.Strategy{driver.Chunked, driver.FreqSpace} {
			launches, cancels, violations = 0, 0, nil
			spec := apps.ByID(id).Spec()
			spec.Strategy = strat
			spec.Workers = 8
			res, err := driver.Probe(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, strat.Name(), err)
			}
			// Probe has joined every speculative goroutine, so the hook
			// has seen every launch and cancellation.
			for _, v := range violations {
				t.Errorf("%s/%s: %s", id, strat.Name(), v)
			}
			if res.TestsSpeculated != launches {
				t.Errorf("%s/%s: TestsSpeculated = %d, hook saw %d launches", id, strat.Name(), res.TestsSpeculated, launches)
			}
			if cancels > 1 {
				t.Errorf("%s/%s: %d mid-flight cancellations, want at most 1", id, strat.Name(), cancels)
			}
			t.Logf("%s/%s: %d speculated, %d cancelled mid-flight, %d wasted", id, strat.Name(), launches, cancels, res.TestsWasted)
			totalLaunches += launches
			totalCancels += cancels
		}
	}
	if runtime.GOMAXPROCS(0) == 1 {
		if totalLaunches != 0 {
			t.Errorf("GOMAXPROCS=1: %d speculative tests launched, want none", totalLaunches)
		}
		return
	}
	if totalLaunches == 0 || totalCancels == 0 {
		t.Errorf("%d speculative tests launched and %d cancelled mid-flight; the policy was never exercised", totalLaunches, totalCancels)
	}
}
