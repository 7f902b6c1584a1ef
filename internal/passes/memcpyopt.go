package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// MemCpyOpt forwards memory through memcpy: a load from the destination
// of a dominating memcpy reads from the source instead (when neither
// destination nor source bytes were clobbered in between), and a
// memcpy whose source is the destination of another memcpy is
// rechained. Both rewrites hinge on alias queries.
type MemCpyOpt struct{}

// Name implements Pass.
func (*MemCpyOpt) Name() string { return "MemCpy Optimization" }

// Run implements Pass.
func (p *MemCpyOpt) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	info := ctx.CFG(fn)
	walker := ctx.MemSSA(fn)
	q := ctx.Query(fn)

	for _, b := range info.RPO {
		for _, in := range b.Instrs {
			if in.Dead() || in.Op != ir.OpLoad {
				continue
			}
			loc := aa.LocOfLoad(in)
			def, unique := walker.ClobberingDef(in, loc)
			if !unique || def == nil || def.Op != ir.OpMemCpy || !info.DominatesInstr(def, in) {
				continue
			}
			// The load reads bytes the memcpy wrote. Replace the load
			// address dst+k by src+k when the access lies fully inside
			// the copied range and the source was not modified since.
			n, ok := constOf(def.Operands[2])
			if !ok {
				continue
			}
			dst, src := def.Operands[0], def.Operands[1]
			base, off, hasVar := decomposePtr(in.Operands[0])
			dBase, dOff, dVar := decomposePtr(dst)
			if hasVar || dVar || base != dBase {
				continue
			}
			k := off - dOff
			if k < 0 || k+in.Ty.Size() > n {
				continue
			}
			srcLoc := aa.MemLoc{Ptr: src, Size: aa.PreciseSize(n), Instr: def}
			if !walker.NoClobberBetween(def, in, srcLoc) {
				continue
			}
			bld := ir.NewBuilder(b)
			newPtr := &ir.Instr{Op: ir.OpGEP, Ty: ir.Ptr, Operands: []ir.Value{src}, Off: k, Loc: in.Loc}
			insertBefore(b, in, newPtr, fn)
			in.Operands[0] = newPtr
			_ = bld
			_ = q
			changed = true
			ctx.Stats.Add(p.Name(), "# loads forwarded through memcpy", 1)
		}
	}
	if !changed {
		return analysis.All
	}
	removeDeadCode(fn)
	fn.Compact()
	return analysis.CFGOnly // inserts GEPs in place, never edges
}

// decomposePtr mirrors BasicAA's GEP walk.
func decomposePtr(ptr ir.Value) (base ir.Value, off int64, hasVar bool) {
	base = ptr
	for depth := 0; depth < 64; depth++ {
		in, ok := base.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			return base, off, hasVar
		}
		off += in.Off
		if len(in.Operands) > 1 {
			if c, isC := in.Operands[1].(*ir.Const); isC {
				off += c.I * in.Scale
			} else {
				hasVar = true
			}
		}
		base = in.Operands[0]
	}
	return base, off, hasVar
}

// insertBefore places newIn immediately before anchor in block b and
// assigns it a fresh ID (never renumbering: VIDs must stay stable for
// ORAQL's query cache).
func insertBefore(b *ir.Block, anchor, newIn *ir.Instr, fn *ir.Func) {
	newIn.Parent = b
	newIn.ID = fn.AllocID()
	for i, x := range b.Instrs {
		if x == anchor {
			b.Instrs = append(b.Instrs[:i], append([]*ir.Instr{newIn}, b.Instrs[i:]...)...)
			return
		}
	}
	panic("passes: insertBefore anchor not found")
}
