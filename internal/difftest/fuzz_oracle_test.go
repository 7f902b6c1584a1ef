package difftest

import (
	"testing"

	"github.com/oraql/go-oraql/internal/progen"
)

// FuzzDifferential is the native fuzz entry to the differential
// oracle: the fuzzer explores generator seeds and statement budgets,
// and every generated program must agree between the unoptimized
// reference and the full sound variant matrix. Any reported failure is
// a real miscompile at head (run oraql-fuzz on the seed to triage it).
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(14), uint8(12))
	f.Add(int64(500), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, stmts uint8) {
		// Keep each exec fast: one exec compiles the program under
		// nine configurations, and the per-input watchdog of the fuzz
		// worker flags multi-second execs as hangs.
		p := progen.Generate(seed, progen.Options{Stmts: int(stmts) % 40})
		div, err := Check(p, CheckOptions{})
		if err != nil {
			t.Fatalf("harness error on seed %d: %v", seed, err)
		}
		if div != nil {
			t.Fatalf("MISCOMPILE seed=%d: %s\nsource:\n%s", seed, div, p.Source)
		}
	})
}
