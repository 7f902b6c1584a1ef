package irinterp_test

import (
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// BenchmarkInterp_Apps runs each app configuration's baseline-compiled
// program (no ORAQL), one sub-benchmark per configuration. Compilation
// is outside the timer. Minstr/s counts host and device instructions.
func BenchmarkInterp_Apps(b *testing.B) {
	for _, cfg := range apps.All() {
		cr, err := pipeline.Compile(pipeline.Config{
			Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
		})
		if err != nil {
			b.Fatalf("%s: %v", cfg.ID, err)
		}
		b.Run(cfg.ID, func(b *testing.B) {
			b.ReportAllocs()
			var instrs int64
			for i := 0; i < b.N; i++ {
				res, err := irinterp.Run(cr.Program, cfg.Run)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs + res.DeviceInstrs
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}
