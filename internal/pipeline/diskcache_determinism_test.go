package pipeline_test

// Determinism contract of the persistent compile cache: a warm
// compilation served from disk — by a different logical "process"
// than the one that populated the store, across every benchmark
// configuration — must be byte-identical to a cold one on everything
// the byte-identity contract covers: executable hash, optimized IR
// text, -stats counters, timing-row order, and runtime behavior of the
// re-materialized program.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// snapshot flattens every output covered by the byte-identity
// contract into one comparable string.
func snapshot(t *testing.T, cr *pipeline.CompileResult) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "exe %s\n", cr.ExeHash())
	targets := []*pipeline.TargetStats{cr.Host}
	if cr.Device != nil {
		targets = append(targets, cr.Device)
	}
	for _, ts := range targets {
		sb.WriteString(ts.Module.String())
		sb.WriteString("=== stats ===\n")
		ts.Pass.Print(&sb)
	}
	sb.WriteString("=== timing order ===\n")
	for _, row := range cr.Timing().Rows() {
		fmt.Fprintf(&sb, "%s runs=%d changed=%d\n", row.Pass, row.Runs, row.Changed)
	}
	return sb.String()
}

func TestWarmFromDiskIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, app := range apps.All() {
		app := app
		t.Run(app.ID, func(t *testing.T) {
			cfg := pipeline.Config{
				Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
				Frontend: app.Frontend,
			}
			cold, err := pipeline.Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldSnap := snapshot(t, cold)
			coldRun, err := irinterp.Run(cold.Program, app.Run)
			if err != nil {
				t.Fatal(err)
			}

			// Populate and warm-load through separate store handles,
			// as two processes sharing the directory would.
			populate, err := diskcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.DiskCache = populate
			if _, err := pipeline.Compile(cfg); err != nil {
				t.Fatal(err)
			}

			warmStore, err := diskcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.DiskCache = warmStore
			warm, err := pipeline.Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if warm.DiskHits() == 0 {
				t.Fatalf("warm compile hit nothing on disk")
			}
			if warmSnap := snapshot(t, warm); warmSnap != coldSnap {
				t.Errorf("warm snapshot differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldSnap, warmSnap)
			}
			warmRun, err := irinterp.Run(warm.Program, app.Run)
			if err != nil {
				t.Fatal(err)
			}
			if warmRun.Stdout != coldRun.Stdout {
				t.Errorf("warm program output differs:\n cold: %q\n warm: %q", coldRun.Stdout, warmRun.Stdout)
			}
			if warmRun.Instrs != coldRun.Instrs {
				t.Errorf("warm program instruction count differs: %d vs %d", coldRun.Instrs, warmRun.Instrs)
			}

			// A pre-built module (oraql-opt prog.ir) takes the same
			// layer, keyed by its printed text.
			host, _, err := minic.Compile(app.SourceName, app.Source, app.Frontend)
			if err != nil {
				t.Fatal(err)
			}
			text := host.String()
			compileIR := func(store *diskcache.Store) *pipeline.CompileResult {
				t.Helper()
				m, err := irtext.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				cr, err := pipeline.Compile(pipeline.Config{Name: app.ID, Module: m, DiskCache: store})
				if err != nil {
					t.Fatal(err)
				}
				return cr
			}
			irColdSnap := snapshot(t, compileIR(nil))
			compileIR(populate)
			irWarm := compileIR(warmStore)
			if irWarm.DiskHits() == 0 {
				t.Fatalf("warm IR compile hit nothing on disk")
			}
			if irWarmSnap := snapshot(t, irWarm); irWarmSnap != irColdSnap {
				t.Errorf("warm IR snapshot differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", irColdSnap, irWarmSnap)
			}
		})
	}
}
