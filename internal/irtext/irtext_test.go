package irtext_test

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// TestRoundTripAllApps prints every benchmark's modules (both the
// frontend output and the optimized form), parses them back, and
// checks (a) print→parse→print is a fixpoint and (b) the reparsed
// module behaves identically on the simulated machine.
func TestRoundTripAllApps(t *testing.T) {
	for _, cfg := range apps.All() {
		cfg := cfg
		t.Run(cfg.ID, func(t *testing.T) {
			// Frontend output.
			host, dev, err := minic.Compile(cfg.SourceName, cfg.Source, cfg.Frontend)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, cfg, host, dev)

			// Optimized output.
			cr, err := pipeline.Compile(pipeline.Config{
				Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
			})
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, cfg, cr.Program.Host, cr.Program.Device)

			// Fully optimistic output (ORAQL on, empty sequence): the
			// final build of a fully optimistic campaign, whose code
			// motion and vectorization go further. It may miscompile,
			// so only the text round trip is checked.
			opt, err := pipeline.Compile(pipeline.Config{
				Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
				ORAQL: &oraql.Options{},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*ir.Module{opt.Program.Host, opt.Program.Device} {
				if m == nil {
					continue
				}
				text := m.String()
				m2, err := irtext.Parse(text)
				if err != nil {
					t.Fatalf("parse fully optimistic %s: %v", m.Name, err)
				}
				if again := m2.String(); again != text {
					t.Fatalf("fully optimistic %s: print->parse->print is not a fixpoint:\nfirst diff at %s", m.Name, firstDiff(text, again))
				}
			}
		})
	}
}

// A block printed after a block it dominates can define a value that
// the earlier one uses. The parser must still type every user from
// that value: here a vector splat defined in the last block.
func TestLateDefinitionKeepsTypes(t *testing.T) {
	src := "; module late target=host\n" +
		"define double @f(double %x) {\n" +
		"entry:\n" +
		"  br %def\n" +
		"use:\n" +
		"  %v = fmul %s, %s\n" +
		"  %r = vreduce %v\n" +
		"  ret %r\n" +
		"def:\n" +
		"  %s = vsplat %x\n" +
		"  br %use\n" +
		"}\n"
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	use := m.Funcs[0].Blocks[1].Instrs
	if use[0].Ty != ir.V4F64 || use[1].Ty != ir.F64 {
		t.Errorf("%%v is %s and %%r %s, want %s and %s", use[0].Ty, use[1].Ty, ir.V4F64, ir.F64)
	}
}

func roundTrip(t *testing.T, cfg *apps.Config, host, dev *ir.Module) {
	t.Helper()
	hostTxt := host.String()
	host2, err := irtext.Parse(hostTxt)
	if err != nil {
		t.Fatalf("parse host: %v", err)
	}
	if again := host2.String(); again != hostTxt {
		t.Fatalf("print->parse->print is not a fixpoint:\nfirst diff at %s", firstDiff(hostTxt, again))
	}
	prog := &irinterp.Program{Host: host2}
	if dev != nil {
		devTxt := dev.String()
		dev2, err := irtext.Parse(devTxt)
		if err != nil {
			t.Fatalf("parse device: %v", err)
		}
		if again := dev2.String(); again != devTxt {
			t.Fatalf("device round-trip mismatch at %s", firstDiff(devTxt, again))
		}
		prog.Device = dev2
	}
	res, err := irinterp.Run(prog, cfg.Run)
	if err != nil {
		t.Fatalf("reparsed program run: %v", err)
	}
	if res.Stdout == "" {
		t.Fatal("reparsed program produced no output")
	}
}

func firstDiff(a, b string) string {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ":\n  a: " + al[i] + "\n  b: " + bl[i]
		}
	}
	return "length mismatch"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestSemanticEquivalenceAfterReparse compares interpreter output of
// the original and reparsed optimized modules for one configuration.
func TestSemanticEquivalenceAfterReparse(t *testing.T) {
	cfg := apps.ByID("lulesh-seq")
	cr, err := pipeline.Compile(pipeline.Config{
		Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := irinterp.Run(cr.Program, cfg.Run)
	if err != nil {
		t.Fatal(err)
	}
	host2, err := irtext.Parse(cr.Program.Host.String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := irinterp.Run(&irinterp.Program{Host: host2}, cfg.Run)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stdout != ref.Stdout {
		t.Fatalf("reparsed module diverges:\n ref: %q\n got: %q", ref.Stdout, got.Stdout)
	}
	if got.Instrs != ref.Instrs {
		t.Errorf("instruction counts differ: %d vs %d", ref.Instrs, got.Instrs)
	}
}

// TestParserErrors checks diagnostics on malformed input.
func TestParserErrors(t *testing.T) {
	cases := []string{
		"",                              // no header
		"; module x target=t\n@g = bad", // malformed global
		"; module x target=t\ndefine void @f() {\nentry:\n  bogus 1\n}\n",                                                   // unknown op
		"; module x target=t\ndefine void @f() {\nentry:\n  ret void\n",                                                     // unterminated
		"; module x target=t\ndefine void @f() {\nentry:\n  %x = load i64, %missing\n  ret void\n}\n",                       // undefined value
		"; module x target=t\ndefine void @f() {\nentry:\n  %a = vsplat %b\n  %b = vsplat %a\n  ret void\n}\n",              // no SSA order
		"; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vextract %x, 0\n  ret %a\n}\n",                  // vextract of a scalar
		"; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vinsert %x, %x, 0\n  ret %x\n}\n",               // vinsert into a scalar
		"; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vreduce %x\n  ret %a\n}\n",                      // vreduce of a scalar
		"; module x target=t\n@g = global [8 bytes]\ndefine void @f() {\nentry:\n  memset @g, 0, 8 !bogus\n  ret void\n}\n", // unknown metadata on a memset
	}
	for _, src := range cases {
		if _, err := irtext.Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestMemSetMetadataRoundTrips: a memset carries its metadata through
// print and parse like every other instruction.
func TestMemSetMetadataRoundTrips(t *testing.T) {
	src := "; module x target=t\n" +
		"@g = global [8 bytes]\n" +
		"define void @f() {\n" +
		"entry:\n" +
		"  memset @g, 0, 8 !dbg f.c:3:4\n" +
		"  ret void\n" +
		"}\n"
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if loc := m.Funcs[0].Blocks[0].Instrs[0].Loc; loc != (ir.SrcLoc{File: "f.c", Line: 3, Col: 4}) {
		t.Errorf("memset location = %+v, want f.c:3:4", loc)
	}
	if text := m.String(); !strings.Contains(text, "  memset @g, 0, 8 !dbg f.c:3:4\n") {
		t.Errorf("the memset prints without its location:\n%s", text)
	}
}

// TestParsedModuleClones: a parsed module clones to the same text.
// Clone maps block references by block ID, so the parser must number
// its blocks as the builder does; with every ID 0, every branch and
// phi of the clone pointed at the last block.
func TestParsedModuleClones(t *testing.T) {
	check := func(name, text string) {
		t.Helper()
		m, err := irtext.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := m.Clone().String(); got != text {
			t.Fatalf("%s: the clone of the parsed module prints differently:\nfirst diff at %s", name, firstDiff(text, got))
		}
	}
	three, err := irtext.Parse("; module x target=t\n" +
		"define void @f() {\n" +
		"entry:\n" +
		"  br %b\n" +
		"b:\n" +
		"  br %c\n" +
		"c:\n" +
		"  ret void\n" +
		"}\n")
	if err != nil {
		t.Fatal(err)
	}
	check("three blocks", three.String())
	for _, cfg := range apps.All() {
		for _, opts := range []*oraql.Options{nil, {Target: cfg.ORAQLTarget}} {
			cr, err := pipeline.Compile(pipeline.Config{
				Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend, ORAQL: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*ir.Module{cr.Program.Host, cr.Program.Device} {
				if m != nil {
					check(cfg.ID+"/"+m.Name, m.String())
				}
			}
		}
	}
}
