package passes

import (
	"slices"
	"testing"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/progen"
)

// TestStepPlanSharesAndRebuildsFinalBodies compiles shells of one
// pristine module through a step memo. A compilation that replays a
// function to a node with no stored final body — the compilation that
// reached it first is still running, or stopped early — rebuilds the
// body on a copy of the pristine one; one that finds the body takes it
// by pointer. Every compilation prints like the live one, and the
// pristine module never changes.
func TestStepPlanSharesAndRebuildsFinalBodies(t *testing.T) {
	p := progen.Generate(3, progen.Options{})
	pristine, _, err := minic.Compile(p.FileName, p.Source, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := pristine.String()
	memo := NewStepMemo(pristine)
	compile := func() (*ir.Module, *Context) {
		t.Helper()
		m := &ir.Module{Name: pristine.Name, Target: pristine.Target, TBAA: pristine.TBAA,
			Globals: slices.Clone(pristine.Globals), Funcs: slices.Clone(pristine.Funcs)}
		mgr := aa.NewManager(m, aa.DefaultChain(m)...)
		op := oraql.New(m, oraql.Options{})
		mgr.Append(op)
		ctx := &Context{Module: m, AA: mgr, Stats: NewStats(), Steps: memo.Plan(op)}
		O3Pipeline().Run(ctx)
		if ctx.Steps.Failed() {
			t.Fatal("the step plan failed")
		}
		if pristine.String() != text {
			t.Fatal("a compilation wrote the pristine module")
		}
		return m, ctx
	}
	live, _ := compile()
	want := live.String()

	var withhold func(n *stepNode)
	withhold = func(n *stepNode) {
		n.final = nil
		for _, e := range n.edges {
			withhold(e.child)
		}
	}
	for _, n := range memo.roots {
		withhold(n)
	}
	rebuilt, ctx := compile()
	if ctx.StepsReplayed == 0 {
		t.Fatal("the second compilation replayed nothing")
	}
	if rebuilt.String() != want {
		t.Fatal("the rebuilt module differs from the live one")
	}

	shared, ctx := compile()
	if ctx.StepsRun != 0 {
		t.Fatalf("the third compilation ran %d steps, want every step replayed", ctx.StepsRun)
	}
	for fi, fn := range shared.Funcs {
		if len(fn.Blocks) == 0 {
			continue
		}
		if fn == pristine.Funcs[fi] || fn != rebuilt.Funcs[fi] {
			t.Fatalf("%s: the third compilation does not share the rebuilt final body", fn.Name)
		}
	}
	if shared.String() != want {
		t.Fatal("the shared module differs from the live one")
	}
}
