package driver

import (
	"testing"

	"github.com/oraql/go-oraql/internal/oraql"
)

// fakeProber is a Prober for strategy unit tests that need no
// compilation. Pad is the identity, so candidates stay
// distinguishable by length.
type fakeProber struct {
	workers int
}

func (f *fakeProber) Test(seq oraql.Seq, specs ...oraql.Seq) (bool, error) { return true, nil }
func (f *fakeProber) Pad(decided oraql.Seq) oraql.Seq                      { return decided.Clone() }
func (f *fakeProber) Workers() int                                         { return f.workers }
func (f *fakeProber) Logf(format string, args ...any)                      {}

// The candidates keep construction order — the left spine
// outside-in, then the right half — so the one speculative test the
// engine launches is the nearest.
func TestChunkedSpecsNaturalOrderWithoutPriors(t *testing.T) {
	f := &fakeProber{workers: 16}
	decided := make(oraql.Seq, 8)
	specs := chunkedStrategy{}.specs(f, decided, 0, 8)
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
