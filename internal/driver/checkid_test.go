package driver

import (
	"reflect"
	"testing"

	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/verify"
)

// Every option that shapes a campaign's outcome is part of its check
// identity, as every output-shaping ORAQL option is part of the TU key
// (pipeline's TestTUKeyCoversORAQLOptions): changing any one field of
// pipeline.Config, oraql.Options or irinterp.Options changes checkID,
// except the fields named here. A field added later fails here until
// it is classified.
func TestCheckIDCoversOptions(t *testing.T) {
	exempt := map[string]string{
		"pipeline.Config.DisableAnalysisCache": "output-neutral, as the transparency tests prove",
		"pipeline.Config.DiskCache":            "the store, not an option",
		"pipeline.Config.DebugPass":            "prints only",
		"pipeline.Config.ORAQL":                "the driver sets it from BenchSpec.ORAQL, whose fields are checked here",
		"oraql.Options.Dump":                   "prints only",
		"oraql.Options.Out":                    "prints only",
		"oraql.Options.Seq":                    "each test's own candidate, keyed in the campaign set",
		// The program inputs: campID adds the baseline's module hashes.
		"pipeline.Config.Name":       "program input",
		"pipeline.Config.Source":     "program input",
		"pipeline.Config.SourceFile": "program input",
		"pipeline.Config.Module":     "program input",
		"pipeline.Config.Frontend":   "program input",
	}
	base := checkID(&BenchSpec{Name: "p"})
	parts := map[string]func(s *BenchSpec) reflect.Value{
		"pipeline.Config":  func(s *BenchSpec) reflect.Value { return reflect.ValueOf(&s.Compile).Elem() },
		"oraql.Options":    func(s *BenchSpec) reflect.Value { return reflect.ValueOf(&s.ORAQL).Elem() },
		"irinterp.Options": func(s *BenchSpec) reflect.Value { return reflect.ValueOf(&s.Run).Elem() },
	}
	seen := map[string]bool{}
	for typName, part := range parts {
		typ := part(&BenchSpec{}).Type()
		for i := range typ.NumField() {
			name := typName + "." + typ.Field(i).Name
			seen[name] = true
			if exempt[name] != "" {
				continue
			}
			spec := &BenchSpec{Name: "p"}
			if !setNonZero(part(spec).Field(i)) {
				t.Fatalf("%s: no non-zero value to try; classify the field here", name)
			}
			if checkID(spec) == base {
				t.Errorf("%s = %v leaves the check identity unchanged", name, part(spec).Field(i))
			}
		}
	}
	for name := range exempt {
		if !seen[name] {
			t.Errorf("exempt field %s does not exist", name)
		}
	}
}

// setNonZero sets v to a non-zero value of its kind, for the kinds the
// option structs use, and reports whether it knows one.
func setNonZero(v reflect.Value) bool {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(1)
	case v.Kind() == reflect.String:
		v.SetString("main")
	case v.Kind() == reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		if !setNonZero(s.Index(0)) {
			return false
		}
		v.Set(s)
	default:
		return false
	}
	return true
}

// The check identity keeps its values, so verdict and campaign sets
// filed before stay valid. The keys are pinned.
func TestCheckIDUnchanged(t *testing.T) {
	for _, c := range []struct {
		spec *BenchSpec
		want string
	}{
		{&BenchSpec{Name: "hello"}, "7f980a3b38c32884a4dbb8a9db3fcf52ae22661e15e722d06a644ae87c46a1ed"},
		{&BenchSpec{Name: "hello", Compile: pipeline.Config{OptLevel: 1, StopAfter: 5, AAChain: "full"},
			ORAQL:  oraql.Options{Mode: 1, Target: "gpu", Funcs: []string{"main", "f"}, Files: []string{"a.mc"}},
			Run:    irinterp.Options{NumThreads: 8, NumRanks: 2, StepLimit: 1000, MemLimit: 4096},
			Verify: verify.Spec{References: []string{"42\n"}, MaskPatterns: []string{`t=\d+`}}},
			"478ac3d5d16248f0125242f3d37fe85e8dcd9ef4ebcbffc9750c97d32ad7094a"},
	} {
		if got := checkID(c.spec); got != c.want {
			t.Errorf("%+v: check identity %s, want %s", c.spec, got, c.want)
		}
	}
}
