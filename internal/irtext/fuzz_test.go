package irtext_test

import (
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/minic"
)

// FuzzIRTextRoundtrip is the native fuzz target for the textual IR
// format: for any input that parses, printing the module and parsing
// it back must be a fixpoint. Inputs that do not parse are skipped —
// the target hunts for parser crashes and print/parse asymmetries,
// not for a total grammar.
func FuzzIRTextRoundtrip(f *testing.F) {
	// Seed with real frontend output so mutation starts from
	// well-formed modules (the checked-in corpus under testdata/fuzz
	// adds hand-written edge cases on top).
	const prog = `int main() {
	double a[4];
	double* restrict p = a + 1;
	for (int i = 0; i < 4; i++) { a[i] = (double)i; }
	p[0] = a[2] + 1.5;
	print("s ", checksum(a, 4), "\n");
	return 0;
}
`
	host, _, err := minic.Compile("seed.mc", prog, minic.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(host.String())
	f.Add("")
	f.Add("define void @f() {\nentry:\n  ret\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		m, err := irtext.Parse(src)
		if err != nil {
			t.Skip()
		}
		txt := m.String()
		m2, err := irtext.Parse(txt)
		if err != nil {
			t.Fatalf("printed module does not reparse: %v\n%s", err, txt)
		}
		again := m2.String()
		if again != txt {
			t.Fatalf("print->parse->print is not a fixpoint:\nfirst diff at %s", firstDiff(txt, again))
		}
	})
}

// FuzzParseNoPanic feeds raw bytes at the parser: any input may be
// rejected, but none may panic or hang.
func FuzzParseNoPanic(f *testing.F) {
	f.Add("define i64 @main() {")
	f.Add("%x = add i64 1, 2")
	f.Add("global @g = [8 x double]")
	f.Add(strings.Repeat("(", 64))
	// Vector operations on a scalar, which must not parse.
	f.Add("; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vextract %x, 0\n  ret %a\n}\n")
	f.Add("; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vinsert %x, %x, 0\n  ret %x\n}\n")
	f.Add("; module x target=t\ndefine double @f(double %x) {\nentry:\n  %a = vreduce %x\n  ret %a\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip()
		}
		m, err := irtext.Parse(src)
		_ = m
		_ = err
	})
}
