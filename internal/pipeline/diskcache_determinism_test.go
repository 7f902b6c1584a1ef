package pipeline_test

// Determinism contract of the persistent compile cache: a warm
// compilation served from disk — by a different logical "process"
// than the one that populated the store, across every benchmark
// configuration — must be byte-identical to a cold one on everything
// the byte-identity contract covers: executable hash, optimized IR
// text, -stats counters, timing-row order, AA statistics, and runtime
// behavior of the re-materialized program.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
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
	aaStats, err := json.Marshal(cr.AAStats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "=== aa ===\n%s\n", aaStats)
	return sb.String()
}

// The pristine identities a TU-cacheable compile takes are the hashes
// of the module's and each function's printed text: every persisted
// key is built from them. Checked for the host and device modules of
// the 16 configs and a few generated programs.
func TestPristineHashesArePrintedTextHashes(t *testing.T) {
	type input struct{ name, file, src string }
	var inputs []input
	var fes []minic.Options
	for _, app := range apps.All() {
		inputs = append(inputs, input{app.ID, app.SourceName, app.Source})
		fes = append(fes, app.Frontend)
	}
	for seed := int64(0); seed < 4; seed++ {
		p := progen.Generate(seed, progen.Options{})
		inputs = append(inputs, input{fmt.Sprintf("progen-%d", seed), p.FileName, p.Source})
		fes = append(fes, minic.Options{})
	}
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		host, device, err := minic.Compile(in.file, in.src, fes[i])
		if err != nil {
			t.Fatal(err)
		}
		cr, err := pipeline.Compile(pipeline.Config{Name: in.name, Source: in.src, SourceFile: in.file,
			Frontend: fes[i], DiskCache: store})
		if err != nil {
			t.Fatal(err)
		}
		check := func(m *ir.Module, ts *pipeline.TargetStats) {
			t.Helper()
			if want := diskcache.HashText(m.String()); ts.ModuleHash != want {
				t.Errorf("%s %s: module hash %.12s, want %.12s", in.name, m.Name, ts.ModuleHash, want)
			}
			if len(ts.FuncHashes) != len(m.Funcs) {
				t.Errorf("%s %s: %d function hashes for %d functions", in.name, m.Name, len(ts.FuncHashes), len(m.Funcs))
			}
			for _, fn := range m.Funcs {
				if want := diskcache.HashText(fn.String()); ts.FuncHashes[fn.Name] != want {
					t.Errorf("%s %s: hash of %s %.12s, want %.12s", in.name, m.Name, fn.Name, ts.FuncHashes[fn.Name], want)
				}
			}
		}
		check(host, cr.Host)
		if (device == nil) != (cr.Device == nil) {
			t.Fatalf("%s: device module mismatch", in.name)
		}
		if device != nil {
			check(device, cr.Device)
		}
	}
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

			// A pre-built module (`oraql opt prog.ir`) takes the same
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
