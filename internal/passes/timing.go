package passes

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/oraql/go-oraql/internal/analysis"
)

// PassTime is one pass's execution accounting: how often it ran (one
// run per function per pipeline position), how many runs changed the
// IR, and the accumulated wall time — the LLVM -time-passes analogue.
type PassTime struct {
	Pass    string
	Runs    int64
	Changed int64
	Wall    time.Duration
}

// Timing accumulates per-pass execution times over one compilation.
// Runs and Changed are deterministic (a pure function of the input
// program and pipeline); Wall is not, which is why timing lives beside
// the StatsRegistry instead of inside it — the differential tests
// compare registries bit-for-bit.
type Timing struct {
	order  []string
	byPass map[string]*PassTime
}

// NewTiming returns an empty timing registry.
func NewTiming() *Timing {
	return &Timing{byPass: map[string]*PassTime{}}
}

// Record books one pass execution.
func (t *Timing) Record(pass string, d time.Duration, changed bool) {
	pt := t.byPass[pass]
	if pt == nil {
		pt = &PassTime{Pass: pass}
		t.byPass[pass] = pt
		t.order = append(t.order, pass)
	}
	pt.Runs++
	if changed {
		pt.Changed++
	}
	pt.Wall += d
}

// Seed inserts one pre-accounted row, used by the disk cache to
// replay a persisted compilation's deterministic timing columns (Runs,
// Changed, row order) with zero wall time.
func (t *Timing) Seed(pass string, runs, changed int64) {
	pt := t.byPass[pass]
	if pt == nil {
		pt = &PassTime{Pass: pass}
		t.byPass[pass] = pt
		t.order = append(t.order, pass)
	}
	pt.Runs += runs
	pt.Changed += changed
}

// Rows returns the per-pass accounting in insertion order (the
// deterministic order Seed must replay).
func (t *Timing) Rows() []PassTime {
	out := make([]PassTime, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.byPass[name])
	}
	return out
}

// Merge adds other's accounting into t (host + device totals).
func (t *Timing) Merge(other *Timing) {
	if other == nil {
		return
	}
	for _, name := range other.order {
		o := other.byPass[name]
		pt := t.byPass[name]
		if pt == nil {
			pt = &PassTime{Pass: name}
			t.byPass[name] = pt
			t.order = append(t.order, name)
		}
		pt.Runs += o.Runs
		pt.Changed += o.Changed
		pt.Wall += o.Wall
	}
}

// Get returns one pass's accounting (zero value if it never ran).
func (t *Timing) Get(pass string) PassTime {
	if pt, ok := t.byPass[pass]; ok {
		return *pt
	}
	return PassTime{Pass: pass}
}

// Entries returns the per-pass times sorted by wall time (descending),
// ties broken by name — the order LLVM's -time-passes report uses.
func (t *Timing) Entries() []PassTime {
	out := make([]PassTime, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, *t.byPass[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Pass < out[j].Pass
	})
	return out
}

// Total returns the summed wall time of all passes.
func (t *Timing) Total() time.Duration {
	var sum time.Duration
	for _, pt := range t.byPass {
		sum += pt.Wall
	}
	return sum
}

// Print renders the report in the style of LLVM's -time-passes,
// followed by the analysis manager's cache counters when available.
func (t *Timing) Print(w io.Writer, an []analysis.Stats) {
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	fmt.Fprintln(w, "                      ... Pass execution timing report ...")
	fmt.Fprintln(w, "===-------------------------------------------------------------------------===")
	total := t.Total()
	fmt.Fprintf(w, "  Total Execution Time: %.4f seconds\n\n", total.Seconds())
	fmt.Fprintf(w, "   ---Wall Time---  --Runs-- -Changed-  --- Name ---\n")
	for _, pt := range t.Entries() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(pt.Wall) / float64(total)
		}
		fmt.Fprintf(w, "  %9.4f (%5.1f%%)  %8d %9d  %s\n",
			pt.Wall.Seconds(), pct, pt.Runs, pt.Changed, pt.Pass)
	}
	if len(an) > 0 {
		fmt.Fprintf(w, "\n   --Hits-- -Misses- -Invalidated-  --- Analysis ---\n")
		for _, s := range an {
			fmt.Fprintf(w, "  %8d %8d %13d  %s\n", s.Hits, s.Misses, s.Invalidations, s.Key)
		}
	}
}
