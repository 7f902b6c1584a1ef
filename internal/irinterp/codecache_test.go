package irinterp

import (
	"maps"
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

// TestCodeCacheServesOnlyItsLayout: programs that share function
// bodies through one code cache decode each body once while their
// global layouts agree. A program that lists the same globals in
// another order lays them out at other addresses, so it decodes its
// own code — and still reads the right values — and the cache keeps
// the code of its first layout.
func TestCodeCacheServesOnlyItsLayout(t *testing.T) {
	m := ir.NewModule("t")
	ga := m.AddGlobal(&ir.Global{Name: "a", Size: 8, InitI64: []int64{1}})
	gb := m.AddGlobal(&ir.Global{Name: "b", Size: 8, InitI64: []int64{2}})
	_, sb := ir.NewFunc(m, "show", ir.I64)
	sb.Call(ir.Void, "__print_i64", sb.Load(ir.I64, ga, ""))
	sb.Call(ir.Void, "__print_i64", sb.Load(ir.I64, gb, ""))
	sb.Ret(ir.ConstInt(0))
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Call(ir.I64, "show")
	b.Call(ir.I64, "show")
	b.Ret(ir.ConstInt(0))

	cache := &CodeCache{}
	run := func(p *Program) {
		t.Helper()
		res, err := Run(p, Options{NumRanks: 2})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Stdout != "12121212" {
			t.Fatalf("stdout = %q, want %q", res.Stdout, "12121212")
		}
	}
	run(&Program{Host: m, Code: cache})
	if len(cache.code) != 2 {
		t.Fatalf("the cache holds %d bodies after one run, want 2", len(cache.code))
	}
	decoded := maps.Clone(cache.code)
	run(&Program{Host: m, Code: cache})
	if !maps.Equal(cache.code, decoded) {
		t.Fatal("a second run of the same program decoded again")
	}

	swapped := &ir.Module{Name: m.Name, Target: m.Target, Globals: []*ir.Global{gb, ga}, Funcs: m.Funcs, TBAA: m.TBAA}
	run(&Program{Host: swapped, Code: cache})
	if !maps.Equal(cache.code, decoded) {
		t.Fatal("a run with another global layout changed the cache")
	}
	if cache.layout[ga] >= cache.layout[gb] {
		t.Fatal("the cache no longer keeps the layout of its first program")
	}
}
