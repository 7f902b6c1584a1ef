package irinterp_test

import (
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// BenchmarkInterp_Apps runs each app configuration's baseline-compiled
// program (no ORAQL), one sub-benchmark per configuration. Every run
// decodes the bodies it calls. Compilation is outside the timer.
// Minstr/s counts host and device instructions.
func BenchmarkInterp_Apps(b *testing.B) { benchApps(b, false) }

// BenchmarkInterp_AppsShared is BenchmarkInterp_Apps with every run of
// a configuration sharing one code cache, as a campaign's tests do:
// bodies are decoded by the first run only, so against
// BenchmarkInterp_Apps it separates decode cost from execution cost.
func BenchmarkInterp_AppsShared(b *testing.B) { benchApps(b, true) }

func benchApps(b *testing.B, shared bool) {
	for _, cfg := range apps.All() {
		cr, err := pipeline.Compile(pipeline.Config{
			Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
		})
		if err != nil {
			b.Fatalf("%s: %v", cfg.ID, err)
		}
		b.Run(cfg.ID, func(b *testing.B) {
			prog := *cr.Program
			if shared {
				prog.Code = &irinterp.CodeCache{}
			}
			b.ReportAllocs()
			var instrs int64
			for i := 0; i < b.N; i++ {
				res, err := irinterp.Run(&prog, cfg.Run)
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs + res.DeviceInstrs
			}
			b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}
