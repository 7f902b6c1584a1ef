package irinterp_test

import (
	"fmt"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

const edgesPath = "testdata/edges.golden"

// TestEdgesGolden pins what runs.golden never reaches: hand-built
// bodies that ir.Verify would reject (reads of values that are not
// defined on every path, phis without an incoming value, calls with
// too few arguments), __clock read mid-block around calls and kernel
// launches, and step limits set one short of and exactly at a run's
// instruction count, plus every limit from 1 to 300 on a body whose
// last block both crosses the limit and divides by zero. Same line
// format and -update as TestGoldenRuns.
func TestEdgesGolden(t *testing.T) {
	var runs []goldenRun
	for _, in := range []int64{1, 0} {
		runs = append(runs,
			goldenRun{fmt.Sprintf("arm-only/in%d", in), &irinterp.Program{Host: armOnly(in, false)}, irinterp.Options{}},
			goldenRun{fmt.Sprintf("arm-only-vector/in%d", in), &irinterp.Program{Host: armOnly(in, true)}, irinterp.Options{}},
			goldenRun{fmt.Sprintf("phi-one-arm/in%d", in), &irinterp.Program{Host: phiOneArm(in)}, irinterp.Options{}},
		)
	}
	runs = append(runs,
		goldenRun{"read-before-def", &irinterp.Program{Host: readBeforeDef()}, irinterp.Options{}},
		goldenRun{"phi-missing-incoming", &irinterp.Program{Host: phiMissingIncoming()}, irinterp.Options{}},
		goldenRun{"phi-swap", &irinterp.Program{Host: phiSwap()}, irinterp.Options{}},
		goldenRun{"missing-arg/read", &irinterp.Program{Host: missingArg(true)}, irinterp.Options{}},
		goldenRun{"missing-arg/unread", &irinterp.Program{Host: missingArg(false)}, irinterp.Options{}},
	)
	host, dev := clockProgram()
	runs = append(runs, goldenRun{"clock", &irinterp.Program{Host: host, Device: dev}, irinterp.Options{}})

	for seed := int64(0); seed < 20; seed++ {
		p := progen.Generate(seed, progen.Options{})
		host, dev, err := minic.Compile(p.FileName, p.Source, minic.Options{})
		if err != nil {
			t.Fatalf("progen %d: frontend: %v", seed, err)
		}
		cr, err := pipeline.Compile(pipeline.Config{
			Name: "edges", Source: p.Source, SourceFile: p.FileName, ORAQL: &oraql.Options{},
		})
		if err != nil {
			t.Fatalf("progen %d: compile: %v", seed, err)
		}
		name := fmt.Sprintf("progen-%d", seed)
		runs = append(runs, stepSweep(t, name+"/O0", &irinterp.Program{Host: host, Device: dev}, irinterp.Options{})...)
		runs = append(runs, stepSweep(t, name+"/optimistic", cr.Program, irinterp.Options{})...)
	}
	for _, id := range []string{"lulesh-seq", "minigmg-sse", "xsbench-seq"} {
		cfg := apps.ByID(id)
		cr, err := pipeline.Compile(pipeline.Config{
			Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName,
			Frontend: cfg.Frontend, ORAQL: &oraql.Options{Target: cfg.ORAQLTarget},
		})
		if err != nil {
			t.Fatalf("%s: compile: %v", id, err)
		}
		runs = append(runs, stepSweep(t, id+"/optimistic", cr.Program, cfg.Run)...)
	}
	div := divAfterLoop()
	for limit := int64(1); limit <= 300; limit++ {
		runs = append(runs, goldenRun{fmt.Sprintf("div-after-loop/steps%d", limit),
			&irinterp.Program{Host: div}, irinterp.Options{StepLimit: limit}})
	}
	checkGolden(t, edgesPath, runs)
}

// stepSweep runs prog once to count its instructions I, then returns
// the runs at StepLimit I-1 (which must trap) and I (which must not).
func stepSweep(t *testing.T, name string, prog *irinterp.Program, opts irinterp.Options) []goldenRun {
	t.Helper()
	res, err := irinterp.Run(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := res.Instrs + res.DeviceInstrs
	short, exact := opts, opts
	short.StepLimit, exact.StepLimit = n-1, n
	return []goldenRun{
		{fmt.Sprintf("%s/steps%d", name, n-1), prog, short},
		{fmt.Sprintf("%s/steps%d", name, n), prog, exact},
	}
}

// armOnly builds main → pick(in), where pick defines %x in one arm of
// a branch on its argument and reads it after the join: pick(0) reads
// a value that never ran. With vector, %x is a vector the join
// reduces.
func armOnly(in int64, vector bool) *ir.Module {
	m := ir.NewModule("arm-only")
	c := &ir.Arg{Name: "c", Ty: ir.I64}
	_, b := ir.NewFunc(m, "pick", ir.I64, c)
	then, join := b.NewBlock("then"), b.NewBlock("join")
	b.CondBr(c, then, join)
	b.SetBlock(then)
	var x *ir.Instr
	if vector {
		x = b.VSplat(ir.V4I64, c, "x")
	} else {
		x = b.Bin(ir.OpAdd, c, ir.ConstInt(40), "x")
	}
	b.Br(join)
	b.SetBlock(join)
	y := x
	if vector {
		y = b.VReduce(x, "y")
	}
	z := b.Bin(ir.OpMul, y, ir.ConstInt(2), "z")
	b.Call(ir.Void, "__print_i64", z)
	b.Ret(z)
	_, mb := ir.NewFunc(m, "main", ir.I64)
	mb.Call(ir.I64, "pick", ir.ConstInt(in))
	mb.Ret(ir.ConstInt(0))
	return m
}

// phiOneArm builds a phi whose incoming value on one edge is defined
// only on the other: pick(0) enters the join from the arm that skips
// the definition.
func phiOneArm(in int64) *ir.Module {
	m := ir.NewModule("phi-one-arm")
	c := &ir.Arg{Name: "c", Ty: ir.I64}
	_, b := ir.NewFunc(m, "pick", ir.I64, c)
	then, els, join := b.NewBlock("then"), b.NewBlock("else"), b.NewBlock("join")
	x := b.Bin(ir.OpAdd, c, ir.ConstInt(1), "x")
	b.CondBr(c, then, els)
	b.SetBlock(then)
	y := b.Bin(ir.OpMul, x, ir.ConstInt(3), "y")
	b.Br(join)
	b.SetBlock(els)
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(ir.I64, "p")
	b.Call(ir.Void, "__print_i64", p)
	b.Ret(p)
	ir.AddIncoming(p, y, then)
	ir.AddIncoming(p, y, els)
	_, mb := ir.NewFunc(m, "main", ir.I64)
	mb.Call(ir.I64, "pick", ir.ConstInt(in))
	mb.Ret(ir.ConstInt(0))
	return m
}

// readBeforeDef builds a loop whose body reads %x before the
// instruction that defines it: the first iteration traps.
func readBeforeDef() *ir.Module {
	m := ir.NewModule("read-before-def")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	loop, exit := b.NewBlock("loop"), b.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64, "i")
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	y := &ir.Instr{Op: ir.OpAdd, Ty: ir.I64, Name: "y"}
	insert(b, y)
	x := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "x")
	y.Operands = []ir.Value{x, ir.ConstInt(5)}
	ir.AddIncoming(i, x, loop)
	cmp := b.ICmp(ir.PredLT, x, ir.ConstInt(3), "cmp")
	b.CondBr(cmp, loop, exit)
	b.SetBlock(exit)
	b.Call(ir.Void, "__print_i64", y)
	b.Ret(ir.ConstInt(0))
	return m
}

// insert appends in to the builder's block through the public surface.
func insert(b *ir.Builder, in *ir.Instr) {
	blk := b.Block()
	in.ID = b.Func().AllocID()
	in.Parent = blk
	blk.Instrs = append(blk.Instrs, in)
}

// phiMissingIncoming builds a loop whose header phi has an incoming
// value for the entry edge only: the back edge traps.
func phiMissingIncoming() *ir.Module {
	m := ir.NewModule("phi-missing")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	header, body := b.NewBlock("header"), b.NewBlock("body")
	b.Br(header)
	b.SetBlock(header)
	p := b.Phi(ir.I64, "p")
	ir.AddIncoming(p, ir.ConstInt(7), entry)
	b.Call(ir.Void, "__print_i64", p)
	b.Br(body)
	b.SetBlock(body)
	b.Bin(ir.OpAdd, p, ir.ConstInt(1), "q")
	b.Br(header)
	return m
}

// phiSwap builds two loops whose header phis read each other. The
// first swaps two values and rotates three, so some phi's back-edge
// source is a phi assigned before it: every source must be read
// before any phi is set. In the second a phi reads only a later one,
// which still holds the previous iteration's value when it is read.
func phiSwap() *ir.Module {
	m := ir.NewModule("phi-swap")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	loop, mid, loop2, exit := b.NewBlock("loop"), b.NewBlock("mid"), b.NewBlock("loop2"), b.NewBlock("exit")
	print := func(vs ...ir.Value) {
		for _, v := range vs {
			b.Call(ir.Void, "__print_i64", v)
			b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
		}
	}
	b.Br(loop)
	b.SetBlock(loop)
	phis := make([]*ir.Instr, 6)
	for k := range phis {
		phis[k] = b.Phi(ir.I64, "")
		ir.AddIncoming(phis[k], ir.ConstInt(int64(k*10)), entry)
	}
	i, x, y, p, q, r := phis[0], phis[1], phis[2], phis[3], phis[4], phis[5]
	print(x, y, p, q, r)
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	b.CondBr(b.ICmp(ir.PredLT, i2, ir.ConstInt(5), ""), loop, mid)
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(x, y, loop)
	ir.AddIncoming(y, x, loop)
	ir.AddIncoming(p, q, loop)
	ir.AddIncoming(q, r, loop)
	ir.AddIncoming(r, p, loop)
	b.SetBlock(mid)
	b.Br(loop2)
	b.SetBlock(loop2)
	j := b.Phi(ir.I64, "j")
	u := b.Phi(ir.I64, "u")
	v := b.Phi(ir.I64, "v")
	print(u, v)
	j2 := b.Bin(ir.OpAdd, j, ir.ConstInt(1), "j2")
	b.CondBr(b.ICmp(ir.PredLT, j2, ir.ConstInt(4), ""), loop2, exit)
	ir.AddIncoming(j, ir.ConstInt(0), mid)
	ir.AddIncoming(j, j2, loop2)
	ir.AddIncoming(u, ir.ConstInt(-1), mid)
	ir.AddIncoming(u, v, loop2)
	ir.AddIncoming(v, x, mid)
	ir.AddIncoming(v, j2, loop2)
	b.SetBlock(exit)
	print(u, v, r)
	b.Ret(ir.ConstInt(0))
	return m
}

// missingArg builds main → two(1), where two takes two parameters and
// reads the second only when read holds.
func missingArg(read bool) *ir.Module {
	m := ir.NewModule("missing-arg")
	a0, a1 := &ir.Arg{Name: "a", Ty: ir.I64}, &ir.Arg{Name: "b", Ty: ir.I64}
	_, b := ir.NewFunc(m, "two", ir.I64, a0, a1)
	var s ir.Value = b.Bin(ir.OpMul, a0, ir.ConstInt(10), "s")
	if read {
		s = b.Bin(ir.OpAdd, s, a1, "t")
	}
	b.Call(ir.Void, "__print_i64", s)
	b.Ret(s)
	_, mb := ir.NewFunc(m, "main", ir.I64)
	mb.Call(ir.I64, "two", ir.ConstInt(1))
	mb.Ret(ir.ConstInt(0))
	return m
}

// clockProgram prints __clock mid-block after arithmetic, after a
// user call whose loop prints it too, and after a kernel launch whose
// kernel reads it, with arithmetic between every two reads.
func clockProgram() (*ir.Module, *ir.Module) {
	host := ir.NewModule("clock")
	dev := ir.NewModule("clock.device")
	dev.Target = "gpu-sim"
	printClock := func(b *ir.Builder) {
		b.Call(ir.Void, "__print_i64", b.Call(ir.I64, "__clock"))
		b.Call(ir.Void, "__print_str", ir.ConstStr(" "))
	}

	ctx := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	kfn, kb := ir.NewFunc(dev, "kern", ir.Void, ctx)
	kfn.Attrs.Kernel = true
	tid := kb.Call(ir.I64, "__gpu_tid")
	kb.Bin(ir.OpMul, tid, ir.ConstInt(3), "k")
	printClock(kb)
	kb.Bin(ir.OpSDiv, tid, ir.ConstInt(2), "h")
	kb.Ret(nil)

	n := &ir.Arg{Name: "n", Ty: ir.I64}
	_, wb := ir.NewFunc(host, "work", ir.I64, n)
	entry := wb.Block()
	loop, exit := wb.NewBlock("loop"), wb.NewBlock("exit")
	wb.Br(loop)
	wb.SetBlock(loop)
	i := wb.Phi(ir.I64, "i")
	acc := wb.Phi(ir.I64, "acc")
	acc2 := wb.Bin(ir.OpMul, acc, ir.ConstInt(3), "acc2")
	printClock(wb)
	i2 := wb.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	cmp := wb.ICmp(ir.PredLT, i2, n, "cmp")
	wb.CondBr(cmp, loop, exit)
	wb.SetBlock(exit)
	wb.Ret(acc2)
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(acc, ir.ConstInt(1), entry)
	ir.AddIncoming(acc, acc2, loop)

	_, b := ir.NewFunc(host, "main", ir.I64)
	x := b.Bin(ir.OpMul, ir.ConstInt(6), ir.ConstInt(7), "x")
	y := b.Bin(ir.OpSDiv, x, ir.ConstInt(5), "y")
	printClock(b)
	r := b.Call(ir.I64, "work", ir.ConstInt(3))
	printClock(b)
	z := b.Bin(ir.OpAdd, r, y, "z")
	buf := b.Alloca(8, "buf")
	b.Store(z, buf, "")
	b.Call(ir.Void, "__gpu_launch", ir.ConstStr("kern"), buf, ir.ConstInt(3))
	printClock(b)
	b.Bin(ir.OpMul, z, z, "w")
	printClock(b)
	b.Ret(ir.ConstInt(0))
	return host, dev
}

// divAfterLoop builds a loop of 8 iterations followed by a block of
// 40 arithmetic instructions, a print, and a division by zero as its
// 92nd instruction overall: limits up to 91 trap on the step limit,
// the later ones inside that block, and the rest on the division.
func divAfterLoop() *ir.Module {
	m := ir.NewModule("div-after-loop")
	_, b := ir.NewFunc(m, "main", ir.I64)
	entry := b.Block()
	loop, tail := b.NewBlock("loop"), b.NewBlock("tail")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64, "i")
	s := b.Phi(ir.I64, "s")
	s2 := b.Bin(ir.OpAdd, s, i, "s2")
	i2 := b.Bin(ir.OpAdd, i, ir.ConstInt(1), "i2")
	cmp := b.ICmp(ir.PredLT, i2, ir.ConstInt(8), "cmp")
	b.CondBr(cmp, loop, tail)
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, i2, loop)
	ir.AddIncoming(s, ir.ConstInt(0), entry)
	ir.AddIncoming(s, s2, loop)
	b.SetBlock(tail)
	acc := ir.Value(s2)
	for k := int64(0); k < 20; k++ {
		acc = b.Bin(ir.OpMul, acc, ir.ConstInt(k+2), "")
		acc = b.Bin(ir.OpXor, acc, i2, "")
	}
	b.Call(ir.Void, "__print_i64", acc)
	zero := b.Bin(ir.OpSub, i2, i2, "zero")
	q := b.Bin(ir.OpSDiv, acc, zero, "q")
	for k := int64(0); k < 10; k++ {
		q = b.Bin(ir.OpAdd, q, ir.ConstInt(k), "")
	}
	b.Ret(q)
	return m
}
