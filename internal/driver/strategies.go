package driver

// Bisection strategies are registered implementations behind the
// Strategy interface: the decision loop hands the strategy a Prober —
// its view of the probing state — and the strategy decides the first n
// response bits in however many (possibly speculative) tests it likes.
// The built-ins are the chunked recursion the paper settled on
// (Section IV-B), the frequency-space splitting it compares against,
// and a linear one-query-at-a-time diagnostic baseline; campaign
// scripts and the serve API select them by registered name, and new
// strategies are a registration, not a driver change.

import (
	"fmt"
	"strings"

	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/registry"
)

// Prober is the strategy's interface to the probing state: testing
// candidates (with optional speculative prefetch) and pessimistic
// padding. Implemented by the driver's internal state; campaign tests
// may fake it.
type Prober interface {
	// Test verifies one candidate sequence, consuming a test from the
	// budget. The trailing specs are speculative candidates — likely
	// future tests on the fail path — which cost nothing from the
	// budget and are cancelled when overtaken; the engine launches one
	// while no other speculative test is in flight.
	Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error)
	// Pad extends a decided prefix with pessimistic padding to the
	// driver's generous padding length (undecided queries stay
	// pessimistic).
	Pad(decided oraql.Seq) oraql.Seq
	// Workers is the worker count (1 = strictly sequential; no point
	// building speculative candidates). Above 1 the engine keeps at
	// most one speculative test in flight, so a strategy builds one
	// candidate, the nearest on the fail path.
	Workers() int
	// Logf emits a progress line, prefixed with the benchmark name.
	Logf(format string, args ...any)
}

// Strategy decides the first n response bits of a probing campaign.
// Implementations must be stateless values (one instance serves
// concurrent campaigns) and must return a locally maximal decision:
// every bit left pessimistic was proven necessary by a failed test.
type Strategy interface {
	// Name is the registered lookup key ("chunked", "freq", ...).
	Name() string
	// Solve bisects [0, n) against p and returns the decided bits.
	Solve(p Prober, n int) (oraql.Seq, error)
}

// Built-in strategies. These are the values registered under their
// names; BenchSpec.Strategy nil means Chunked.
var (
	Chunked   Strategy = chunkedStrategy{}
	FreqSpace Strategy = freqStrategy{}
	Linear    Strategy = linearStrategy{}
)

func init() {
	for _, s := range []struct {
		strat Strategy
		desc  string
	}{
		{Chunked, "recursive halving of consecutive ranges (paper default; good when dangerous queries cluster)"},
		{FreqSpace, "residue-class splitting by doubling modulus (descriptors independent of sequence length)"},
		{Linear, "one query at a time, left to right (O(n) tests; diagnostic baseline)"},
	} {
		registry.Strategies.Register(registry.Entry{
			Name:        s.strat.Name(),
			Description: s.desc,
			Value:       s.strat,
		})
	}
}

// StrategyByName resolves a registered strategy.
func StrategyByName(name string) (Strategy, error) {
	e, ok := registry.Strategies.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("driver: unknown strategy %q (known: %s)",
			name, strings.Join(registry.Strategies.Names(), ", "))
	}
	return e.Value.(Strategy), nil
}

// chunkedStrategy is the paper's chunked recursion (Fig. 2).
type chunkedStrategy struct{}

func (chunkedStrategy) Name() string { return "chunked" }

// Solve runs the chunked recursion over [0, n), splitting a failed
// range [lo, hi) of at least two queries at its index midpoint. The
// knownBad flag implements the paper's Fig. 2 deduction: when a parent
// range failed and its left part verified entirely optimistic, the
// right part must contain a dangerous query, so its whole-range test
// is skipped.
func (s chunkedStrategy) Solve(p Prober, n int) (oraql.Seq, error) {
	decided := make(oraql.Seq, n)
	// allOpt reports whether the whole range ended up optimistic.
	var solve func(lo, hi int, knownBad bool) (bool, error)
	solve = func(lo, hi int, knownBad bool) (bool, error) {
		if lo >= hi {
			return true, nil
		}
		if !knownBad {
			cand := decided.Clone()
			for i := lo; i < hi; i++ {
				cand[i] = true
			}
			ok, err := p.Test(p.Pad(cand[:hi]), s.specs(p, decided, lo, hi)...)
			if err != nil {
				return false, err
			}
			if ok {
				copy(decided[lo:hi], cand[lo:hi])
				return true, nil
			}
		}
		if hi-lo == 1 {
			decided[lo] = false // dangerous query pinned
			p.Logf("query %d must stay pessimistic", lo)
			return false, nil
		}
		mid := (lo + hi) / 2
		leftAll, err := solve(lo, mid, false)
		if err != nil {
			return false, err
		}
		// If the left part is entirely optimistic, the dangerous query
		// must be on the right: skip the right's whole-range test.
		if _, err := solve(mid, hi, leftAll); err != nil {
			return false, err
		}
		return false, nil
	}
	if _, err := solve(0, n, true); err != nil {
		return nil, err
	}
	return decided, nil
}

// specs builds the speculative candidate launched alongside the
// whole-range test of [lo, hi): its left part, the next test on the
// fail path. Decided bits only ever flip to optimistic on a success —
// and every success cancels outstanding speculation — so a candidate
// built from the current decided state stays exact until consumed or
// cancelled.
func (chunkedStrategy) specs(p Prober, decided oraql.Seq, lo, hi int) []oraql.Seq {
	if p.Workers() <= 1 || hi-lo <= 1 {
		return nil
	}
	mid := (lo + hi) / 2
	cand := decided.Clone()
	for i := lo; i < mid; i++ {
		cand[i] = true
	}
	return []oraql.Seq{p.Pad(cand[:mid])}
}

// freqStrategy is the frequency-space recursion: residue classes of
// the query index, refined by doubling the modulus.
type freqStrategy struct{}

func (freqStrategy) Name() string { return "freq" }

func (s freqStrategy) Solve(p Prober, n int) (oraql.Seq, error) {
	decided := make(oraql.Seq, n)
	done := make([]bool, n)
	var solve func(m, r int) error
	solve = func(m, r int) error {
		if r >= n {
			return nil
		}
		cand := decided.Clone()
		for i := r; i < n; i += m {
			if !done[i] {
				cand[i] = true
			}
		}
		ok, err := p.Test(p.Pad(cand), s.specs(p, decided, done, m, r)...)
		if err != nil {
			return err
		}
		if ok {
			for i := r; i < n; i += m {
				if !done[i] {
					decided[i] = true
					done[i] = true
				}
			}
			return nil
		}
		if m >= n {
			// The class has a single member in range.
			decided[r] = false
			done[r] = true
			p.Logf("query %d must stay pessimistic", r)
			return nil
		}
		if err := solve(2*m, r); err != nil {
			return err
		}
		return solve(2*m, r+m)
	}
	if err := solve(1, 0); err != nil {
		return nil, err
	}
	return decided, nil
}

// specs builds the speculative candidate launched alongside the test
// of residue class (m, r): the refined class (2m, r), the next test on
// the fail path (decided unchanged); a success cancels it.
func (freqStrategy) specs(p Prober, decided oraql.Seq, done []bool, m, r int) []oraql.Seq {
	n := len(decided)
	if p.Workers() <= 1 || m >= n {
		return nil
	}
	cand := decided.Clone()
	for i := r; i < n; i += 2 * m {
		if !done[i] {
			cand[i] = true
		}
	}
	return []oraql.Seq{p.Pad(cand)}
}

// linearStrategy flips one query at a time, left to right: n tests,
// no range deductions. It exists as the diagnostic baseline — its test
// count is the worst case every bisection strategy is measured against
// — and as the simplest template for new registered strategies.
type linearStrategy struct{}

func (linearStrategy) Name() string { return "linear" }

func (linearStrategy) Solve(p Prober, n int) (oraql.Seq, error) {
	decided := make(oraql.Seq, n)
	for i := 0; i < n; i++ {
		cand := decided.Clone()
		cand[i] = true
		var specs []oraql.Seq
		if p.Workers() > 1 && i+1 < n {
			// The fail-path successor: bit i stays pessimistic, bit i+1
			// tried next.
			next := decided.Clone()
			next[i+1] = true
			specs = append(specs, p.Pad(next[:i+2]))
		}
		ok, err := p.Test(p.Pad(cand[:i+1]), specs...)
		if err != nil {
			return nil, err
		}
		if ok {
			decided[i] = true
		} else {
			p.Logf("query %d must stay pessimistic", i)
		}
	}
	return decided, nil
}
