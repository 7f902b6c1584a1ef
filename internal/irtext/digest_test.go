package irtext_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/ir_digests.golden from the current printer")

// appModule is one target's module of one configuration at one stage:
// the frontend output ("frontend"), the optimized build without ORAQL
// ("baseline"), or the build with ORAQL on and an empty sequence
// ("optimistic"), a fully optimistic campaign's final.
type appModule struct {
	config, target, stage string
	m                     *ir.Module
}

// appModules compiles every configuration at the given stages, host
// before device.
func appModules(tb testing.TB, stages ...string) []appModule {
	tb.Helper()
	var out []appModule
	for _, c := range apps.All() {
		spec := c.Spec()
		for _, stage := range stages {
			var host, dev *ir.Module
			switch stage {
			case "frontend":
				var err error
				host, dev, err = minic.Compile(spec.Compile.SourceFile, spec.Compile.Source, spec.Compile.Frontend)
				if err != nil {
					tb.Fatalf("%s: %v", c.ID, err)
				}
			case "baseline", "optimistic":
				cfg := spec.Compile
				cfg.Name = spec.Name
				if stage == "optimistic" {
					opts := spec.ORAQL
					cfg.ORAQL = &opts
				}
				cr, err := pipeline.Compile(cfg)
				if err != nil {
					tb.Fatalf("%s: %v", c.ID, err)
				}
				host, dev = cr.Program.Host, cr.Program.Device
			default:
				tb.Fatalf("unknown stage %q", stage)
			}
			out = append(out, appModule{c.ID, "host", stage, host})
			if dev != nil {
				out = append(out, appModule{c.ID, "device", stage, dev})
			}
		}
	}
	return out
}

// TestIRDigestsGolden pins the printer's bytes: for each configuration,
// target and stage, the sha256 of Module.String() and of the
// newline-joined Instr.String() of every live instruction — the text
// that query descriptors, persisted verdicts and the benchmark's
// expected convictions are made of.
func TestIRDigestsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# config target stage sha256(Module.String()) sha256(Instr.String() of live instructions)\n")
	for _, am := range appModules(t, "frontend", "baseline", "optimistic") {
		var instrs []string
		for _, f := range am.m.Funcs {
			for _, blk := range f.Blocks {
				for _, in := range blk.Instrs {
					if !in.Dead() {
						instrs = append(instrs, in.String())
					}
				}
			}
		}
		fmt.Fprintf(&b, "%s %s %s %s %s\n", am.config, am.target, am.stage,
			digest(am.m.String()), digest(strings.Join(instrs, "\n")))
	}

	path := filepath.Join("testdata", "ir_digests.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\ngot:  %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestConcurrentPrinting prints the same modules from several
// goroutines at once, as parallel campaigns over shared pristine
// modules do: the pooled printers must not mix their output.
func TestConcurrentPrinting(t *testing.T) {
	mods := appModules(t, "optimistic")
	want := make([]string, len(mods))
	for i, am := range mods {
		want[i] = am.m.String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, am := range mods {
				if got := am.m.String(); got != want[i] {
					t.Errorf("%s %s: concurrent print differs", am.config, am.target)
				}
				for _, f := range am.m.Funcs {
					_ = f.Blocks[0].Instrs[0].String()
				}
			}
		}()
	}
	wg.Wait()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

var printed string

// BenchmarkIRCodec times the TU artifact's text round trip over the
// baseline and fully optimistic builds of every configuration: print
// renders each module with Module.String, parse reads each text back
// with irtext.Parse, its closing ir.Verify included. One op covers
// every module; SetBytes is the text's total size.
func BenchmarkIRCodec(b *testing.B) {
	mods := appModules(b, "baseline", "optimistic")
	texts := make([]string, len(mods))
	size := 0
	for i, am := range mods {
		texts[i] = am.m.String()
		size += len(texts[i])
	}
	b.Run("print", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			for _, am := range mods {
				printed = am.m.String()
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			for _, text := range texts {
				if _, err := irtext.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
