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

// The engine keeps at most one speculative test in flight, so chunked
// builds one candidate whatever the worker count: the nearest on the
// fail path, the left half.
func TestChunkedSpecsNaturalOrderWithoutPriors(t *testing.T) {
	f := &fakeProber{workers: 16}
	decided := make(oraql.Seq, 8)
	specs := chunkedStrategy{}.specs(f, decided, 0, 8)
	if len(specs) != 1 || specs[0].String() != "1 1 1 1" {
		t.Fatalf("speculative candidates %v, want one, the left half 1 1 1 1", specs)
	}
}

// freq likewise builds one candidate: the refined residue class
// (2m, r) of the class under test.
func TestFreqSpecsNearestClass(t *testing.T) {
	f := &fakeProber{workers: 16}
	decided := make(oraql.Seq, 8)
	specs := freqStrategy{}.specs(f, decided, make([]bool, 8), 1, 0)
	if len(specs) != 1 || specs[0].String() != "1 0 1 0 1 0 1 0" {
		t.Fatalf("speculative candidates %v, want one, the class (2, 0) 1 0 1 0 1 0 1 0", specs)
	}
}
