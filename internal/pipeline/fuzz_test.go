package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/progen"
)

// The random-program tests below draw from internal/progen, the
// shared UB-free generator (pointer views, structs, restrict calls,
// parallel regions); internal/difftest builds the full differential
// matrix and triage on top of the same generator.

// TestDifferentialO0VsO3 is the compiler soundness fuzz test: for many
// random programs, the unoptimized and fully optimized compilations
// must produce identical output.
func TestDifferentialO0VsO3(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := progen.Generate(int64(seed), progen.Options{})
			src := p.Source

			host0, _, err := minic.Compile(p.FileName, src, minic.Options{})
			if err != nil {
				t.Fatalf("frontend: %v\nsource:\n%s", err, src)
			}
			ref, err := irinterp.Run(&irinterp.Program{Host: host0}, irinterp.Options{})
			if err != nil {
				t.Fatalf("O0 run: %v\nsource:\n%s", err, src)
			}

			cr, err := Compile(Config{Name: "fuzz", Source: src, SourceFile: p.FileName})
			if err != nil {
				t.Fatalf("O3 compile: %v\nsource:\n%s", err, src)
			}
			got, err := irinterp.Run(cr.Program, irinterp.Options{})
			if err != nil {
				t.Fatalf("O3 run: %v\nsource:\n%s", err, src)
			}
			if got.Stdout != ref.Stdout {
				t.Fatalf("MISCOMPILE (seed %d):\n O0: %q\n O3: %q\nsource:\n%s", seed, ref.Stdout, got.Stdout, src)
			}
		})
	}
}

// TestDifferentialModels checks that every parallel-model lowering of
// the same data-parallel program agrees with the sequential one.
func TestDifferentialModels(t *testing.T) {
	src := `
int main() {
	double a[32];
	double b[32];
	for (int z = 0; z < 32; z++) {
		a[z] = (double)z * 0.25;
		b[z] = 0.0;
	}
	parallel for (i = 0; i < 32; i++) {
		b[i] = a[i] * 2.0 + 1.0;
	}
	double s = 0.0;
	for (int z = 0; z < 32; z++) {
		s = s + b[z];
	}
	print("s=", s, "\n");
	return 0;
}`
	var ref string
	for _, model := range []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelTasks, minic.ModelMPI, minic.ModelOffload} {
		cr, err := Compile(Config{Name: "models", Source: src, SourceFile: "models.mc",
			Frontend: minic.Options{Model: model}})
		if err != nil {
			t.Fatalf("model %d: %v", model, err)
		}
		res, err := irinterp.Run(cr.Program, irinterp.Options{})
		if err != nil {
			t.Fatalf("model %d run: %v", model, err)
		}
		if ref == "" {
			ref = res.Stdout
			continue
		}
		if res.Stdout != ref {
			t.Errorf("model %d output %q != sequential %q", model, res.Stdout, ref)
		}
	}
	if ref != "s=280\n" {
		t.Errorf("reference output = %q", ref)
	}
}

// TestDifferentialModelsFuzz generates random data-parallel programs
// (MinParallel guarantees at least one parallel region per program)
// and checks all five model lowerings agree with the unoptimized
// sequential build.
func TestDifferentialModelsFuzz(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	models := []minic.Model{minic.ModelSeq, minic.ModelOpenMP, minic.ModelTasks, minic.ModelMPI, minic.ModelOffload}
	for seed := 0; seed < seeds; seed++ {
		p := progen.Generate(int64(1000+seed), progen.Options{MinParallel: 1})
		src := p.Source
		if p.Parallel == 0 {
			t.Fatalf("seed %d: MinParallel ignored", seed)
		}

		ref := ""
		for _, model := range models {
			cr, err := Compile(Config{Name: "mfuzz", Source: src, SourceFile: p.FileName,
				Frontend: minic.Options{Model: model}})
			if err != nil {
				t.Fatalf("seed %d model %d: %v\nsource:\n%s", seed, model, err, src)
			}
			res, err := irinterp.Run(cr.Program, irinterp.Options{NumRanks: 1})
			if err != nil {
				t.Fatalf("seed %d model %d run: %v\nsource:\n%s", seed, model, err, src)
			}
			if ref == "" {
				ref = res.Stdout
			} else if res.Stdout != ref {
				t.Fatalf("seed %d model %d diverges:\n ref: %q\n got: %q\nsource:\n%s",
					seed, model, ref, res.Stdout, src)
			}
		}
	}
}

// TestDifferentialAnalysisCache is the analysis-manager soundness fuzz
// test: for many random programs, compiling with cached analyses and
// compiling with every analysis force-invalidated before each use must
// be indistinguishable — same executable, same per-pass statistics,
// same ORAQL query stream, same alias-query counters. Any preservation
// set that is too generous shows up here as a divergence.
func TestDifferentialAnalysisCache(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := progen.Generate(int64(seed), progen.Options{})
			src := p.Source
			compile := func(disable bool) *CompileResult {
				cr, err := Compile(Config{
					Name:                 "fuzz-am",
					Source:               src,
					SourceFile:           p.FileName,
					ORAQL:                &oraql.Options{},
					DisableAnalysisCache: disable,
				})
				if err != nil {
					t.Fatalf("compile (analysis cache disabled=%v): %v\nsource:\n%s", disable, err, src)
				}
				return cr
			}
			on := compile(false)
			off := compile(true)

			if g, w := on.ExeHash(), off.ExeHash(); g != w {
				t.Errorf("seed %d: ExeHash differs: cached %s, force-invalidated %s\nsource:\n%s",
					seed, g, w, src)
			}
			if g, w := on.ORAQLStats(), off.ORAQLStats(); g != w {
				t.Errorf("seed %d: ORAQL stats differ: cached %+v, force-invalidated %+v",
					seed, g, w)
			}
			if g, w := on.Host.Pass.Entries(), off.Host.Pass.Entries(); !reflect.DeepEqual(g, w) {
				t.Errorf("seed %d: pass statistics differ:\ncached: %+v\nforce-invalidated: %+v",
					seed, g, w)
			}
			son, soff := on.AAStats(), off.AAStats()
			if son.Queries != soff.Queries || son.NoAlias != soff.NoAlias ||
				son.MayAlias != soff.MayAlias || son.MustAlias != soff.MustAlias {
				t.Errorf("seed %d: alias query counters differ: cached %+v, force-invalidated %+v",
					seed, son, soff)
			}
			var hitsOff int64
			for _, as := range off.AnalysisStats() {
				hitsOff += as.Hits
			}
			if hitsOff != 0 {
				t.Errorf("seed %d: force-invalidate mode counted %d analysis cache hits", seed, hitsOff)
			}
		})
	}
}

// FuzzSessionMatchesCold compiles a progen program on one compile
// session with the empty sequence, a fuzzed sequence and a one-answer
// variant of it, in a fuzzed ORAQL mode, with the default or the full
// AA chain (the top bit of the first byte); every session compile must
// give the executable hash and ORAQL counters of a cold compile.
func FuzzSessionMatchesCold(f *testing.F) {
	f.Add(int64(0), []byte{0xff, 0x0f})
	f.Add(int64(7), []byte{0x00, 0x00, 0x00})
	f.Add(int64(42), []byte{0xaa, 0x55, 0x01})
	f.Add(int64(123), []byte{0x3c, 0xc3})
	f.Fuzz(func(t *testing.T, seed int64, bits []byte) {
		if len(bits) > 64 {
			bits = bits[:64]
		}
		var seq oraql.Seq
		for i := 0; i < 8*len(bits); i++ {
			seq = append(seq, bits[i/8]&(1<<(i%8)) != 0)
		}
		variant := seq.Clone()
		if len(variant) > 0 {
			variant[len(variant)/2] = !variant[len(variant)/2]
		}
		mode := oraql.ModeOptimistic
		full := false
		if len(bits) > 0 {
			mode = oraql.Mode(bits[0] % 3)
			full = bits[0]&0x80 != 0
		}
		p := progen.Generate(seed, progen.Options{})
		cfg := Config{Name: "fuzz", Source: p.Source, SourceFile: p.FileName, FullAAChain: full, ORAQL: &oraql.Options{Mode: mode}}
		sess := NewSession(cfg)
		for _, s := range []oraql.Seq{nil, seq, variant} {
			got, err := sess.Compile(context.Background(), s)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			cold := cfg
			opts := *cfg.ORAQL
			opts.Seq = s
			cold.ORAQL = &opts
			want, err := Compile(cold)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if got.ExeHash() != want.ExeHash() || got.ORAQLStats() != want.ORAQLStats() {
				t.Fatalf("seed %d mode %d full chain %t seq [%s]: session %s %+v, cold %s %+v\nsource:\n%s", seed, mode, full, s,
					got.ExeHash(), got.ORAQLStats(), want.ExeHash(), want.ORAQLStats(), p.Source)
			}
		}
		if n := sess.Fallbacks(); n != 0 {
			t.Fatalf("%d cold fallbacks", n)
		}
	})
}
