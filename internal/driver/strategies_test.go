package driver

import (
	"math"
	"testing"

	"github.com/oraql/go-oraql/internal/oraql"
)

// fakeProber is a Prober over a fixed priors table, for strategy unit
// tests that need no compilation. Pad is the identity, so candidates
// stay distinguishable by length.
type fakeProber struct {
	priors  []float64
	workers int
	has     bool
}

func (f *fakeProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) { return true, nil }
func (f *fakeProber) Pad(decided oraql.Seq) oraql.Seq                      { return decided.Clone() }
func (f *fakeProber) Workers() int                                         { return f.workers }
func (f *fakeProber) HasPriors() bool                                      { return f.has }
func (f *fakeProber) Logf(format string, args ...any)                      {}

func (f *fakeProber) PFail(lo, hi int) float64 {
	allOK := 1.0
	for i := lo; i < hi; i++ {
		p := 0.5
		if i < len(f.priors) {
			p = f.priors[i]
		}
		allOK *= 1 - p
	}
	return 1 - allOK
}

// The chunked strategy's speculative candidates must be ordered by
// estimated consumption probability when priors are available: the
// score of a left-spine candidate is the product of its ancestors'
// failure probabilities, and the right-half candidate's score is
// PFail(lo,hi)*PFail(lo,mid) — it is consumed exactly when the whole
// range failed AND the left half failed (an optimistic left half
// skips the right's whole-range test via the Fig. 2 deduction).
//
// This pins the score math: with a hot suspect at index 6 of [0, 8),
// the left-half candidate (very likely consumed: the whole range is
// nearly sure to fail) must come first, and the deepest left-spine
// candidate (needs three ancestor failures through safe territory)
// must come last. The right-half candidate ties with the left-quarter
// candidate by construction — identical products — and the ordering
// is documented-stable, keeping the spine candidate first.
func TestChunkedSpecsConsumptionOrdering(t *testing.T) {
	priors := make([]float64, 8)
	for i := range priors {
		priors[i] = 0.05
	}
	priors[6] = 0.9
	f := &fakeProber{priors: priors, workers: 16, has: true}
	decided := make(oraql.Seq, 8)

	specs := bisectSpecs(f, decided, 0, 8, midpoint)
	want := []int{4, 2, 8, 1} // left half, left quarter, right half, left eighth
	if len(specs) != len(want) {
		t.Fatalf("got %d speculative candidates, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if len(s) != want[i] {
			lens := make([]int, len(specs))
			for j := range specs {
				lens[j] = len(specs[j])
			}
			t.Fatalf("candidate order by length = %v, want %v", lens, want)
		}
	}
}

// Without priors the candidates keep construction order — the left
// spine outside-in, then the right half — because PFail is
// uninformative and reordering would only churn the engine's
// speculation slots.
func TestChunkedSpecsNaturalOrderWithoutPriors(t *testing.T) {
	f := &fakeProber{workers: 16, has: false}
	decided := make(oraql.Seq, 8)
	specs := bisectSpecs(f, decided, 0, 8, midpoint)
	want := []int{4, 2, 1, 8}
	if len(specs) != len(want) {
		t.Fatalf("got %d speculative candidates, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if len(s) != want[i] {
			t.Fatalf("candidate %d has length %d, want %d", i, len(s), want[i])
		}
	}
}

func TestBayesSplit(t *testing.T) {
	cases := []struct {
		name   string
		w      []float64
		lo, hi int
		want   int
	}{
		{"uniform weights fall back to the index midpoint", []float64{1, 1, 1, 1}, 0, 4, 2},
		{"zero weights fall back to the index midpoint", []float64{0, 0, 0, 0, 0, 0}, 0, 6, 3},
		{"dominant suspect splits immediately before it", []float64{0.1, 0.1, 5, 0.1}, 0, 4, 2},
		{"dominant suspect at lo clamps to lo+1", []float64{5, 0.1, 0.1}, 0, 3, 1},
		{"dominant suspect at hi-1 keeps the right non-empty", []float64{0.1, 0.1, 5}, 0, 3, 2},
		{"subrange respects lo/hi bounds", []float64{9, 9, 1, 1, 1, 1}, 2, 6, 4},
	}
	for _, c := range cases {
		if got := bayesSplit(c.w, c.lo, c.hi); got != c.want {
			t.Errorf("%s: bayesSplit(%v, %d, %d) = %d, want %d", c.name, c.w, c.lo, c.hi, got, c.want)
		}
	}
}

func TestBayesWeights(t *testing.T) {
	f := &fakeProber{priors: []float64{0.05, 0.5, 0.999}, has: true}
	w := bayesWeights(f, 3)
	if got, want := w[0], -math.Log(0.95); math.Abs(got-want) > 1e-12 {
		t.Errorf("w[0] = %g, want %g", got, want)
	}
	if got, want := w[1], -math.Log(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("w[1] = %g, want %g", got, want)
	}
	// Near-certain failure clamps the survival probability at 0.02 so
	// one query can never carry unbounded mass.
	if got, want := w[2], -math.Log(0.02); math.Abs(got-want) > 1e-12 {
		t.Errorf("w[2] = %g, want %g (clamped)", got, want)
	}
}

// With uniform (absent) priors every split lands on the index
// midpoint, so bayes must issue exactly the chunked test sequence.
func TestBayesDegeneratesToChunkedWithoutPriors(t *testing.T) {
	guilty := map[int]bool{3: true, 11: true}
	run := func(s Strategy) []string {
		rec := &recordingProber{guilty: guilty, n: 16}
		seq, err := s.Solve(rec, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if seq[i] == guilty[i] {
				t.Fatalf("%s: bit %d decided %v with guilty=%v", s.Name(), i, seq[i], guilty[i])
			}
		}
		return rec.tests
	}
	ch, by := run(Chunked), run(Bayes)
	if len(ch) != len(by) {
		t.Fatalf("test counts differ: chunked %d, bayes %d", len(ch), len(by))
	}
	for i := range ch {
		if ch[i] != by[i] {
			t.Fatalf("test %d differs:\nchunked: %s\nbayes:   %s", i, ch[i], by[i])
		}
	}
}

// recordingProber answers Test from a guilty set — a candidate fails
// iff it flips a guilty query optimistic — and records the sequences
// tested.
type recordingProber struct {
	guilty map[int]bool
	n      int
	tests  []string
}

func (r *recordingProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) {
	r.tests = append(r.tests, seq.String())
	for i, b := range seq {
		if b && r.guilty[i] {
			return false, nil
		}
	}
	return true, nil
}

func (r *recordingProber) Pad(decided oraql.Seq) oraql.Seq {
	out := make(oraql.Seq, r.n)
	copy(out, decided)
	return out
}

func (r *recordingProber) Workers() int                    { return 1 }
func (r *recordingProber) HasPriors() bool                 { return false }
func (r *recordingProber) Logf(format string, args ...any) {}

func (r *recordingProber) PFail(lo, hi int) float64 {
	return 1 - math.Pow(0.5, float64(hi-lo))
}
