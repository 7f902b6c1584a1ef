package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// DSE is dead-store elimination: a store is removed when a later store
// must overwrite the same bytes before any instruction may read them,
// or when it targets a non-captured local object that is never read at
// all. Alias queries decide both "may read" and "must overwrite".
type DSE struct{}

// Name implements Pass.
func (*DSE) Name() string { return "Dead Store Elimination" }

// Run implements Pass.
func (p *DSE) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	q := ctx.Query(fn)

	// Same-block overwrites.
	for _, b := range fn.Blocks {
		for i, s := range b.Instrs {
			if s.Dead() || s.Op != ir.OpStore {
				continue
			}
			loc := aa.LocOfStore(s)
		scan:
			for j := i + 1; j < len(b.Instrs); j++ {
				in := b.Instrs[j]
				if in.Dead() {
					continue
				}
				if in.Op == ir.OpStore {
					oLoc := aa.LocOfStore(in)
					if oLoc.Size.Known && loc.Size.Known && oLoc.Size.Bytes >= loc.Size.Bytes &&
						ctx.AA.Alias(oLoc, loc, q) == aa.MustAlias {
						s.MarkDead()
						changed = true
						ctx.Stats.Add(p.Name(), "# stores deleted", 1)
						break scan
					}
				}
				if ctx.AA.InstrMayReadLoc(in, loc, q) {
					break scan
				}
			}
		}
	}

	// Stores into never-read, non-captured local objects. Readness is
	// a structural property (use-list walk), not an alias query: a
	// non-captured object is only readable through pointers derived
	// from it, exactly as LLVM's DSE reasons about dead objects.
	for _, b := range fn.Blocks {
		for _, obj := range b.Instrs {
			if obj.Dead() || obj.Op != ir.OpAlloca {
				continue
			}
			if !aa.IsNonCaptured(obj) || objectIsRead(fn, obj) {
				continue
			}
			for _, bb := range fn.Blocks {
				for _, in := range bb.Instrs {
					if in.Dead() || (in.Op != ir.OpStore && in.Op != ir.OpMemSet) {
						continue
					}
					dst := in.Operands[1]
					if in.Op == ir.OpMemSet {
						dst = in.Operands[0]
					}
					if aa.UnderlyingObject(dst) == ir.Value(obj) {
						in.MarkDead()
						changed = true
						ctx.Stats.Add(p.Name(), "# stores deleted", 1)
					}
				}
			}
		}
	}

	if !changed {
		return analysis.All
	}
	fn.Compact()
	removeDeadCode(fn)
	return analysis.CFGOnly // deletes stores, never edges
}

// objectIsRead reports whether any instruction reads through a pointer
// derived from the non-captured object obj.
func objectIsRead(fn *ir.Func, obj *ir.Instr) bool {
	var buf [4]aa.MemLoc
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() || !in.ReadsMemory() {
				continue
			}
			reads := aa.AppendReadLocs(buf[:0], in)
			if in.Op == ir.OpCall && !ir.CalleeEffects(in.Callee).ArgMemOnly && len(reads) == 0 {
				return true // reads arbitrary memory
			}
			for _, r := range reads {
				if derivedFrom(r.Ptr, obj, 0) {
					return true
				}
			}
		}
	}
	return false
}

// derivedFrom reports whether pointer v reaches obj through GEP bases
// or either arm of a select. These are the derivations
// aa.IsNonCaptured follows, so for a non-captured obj no other pointer
// can point into it. Past 64 steps it stays conservative.
func derivedFrom(v ir.Value, obj *ir.Instr, depth int) bool {
	for ; depth < 64; depth++ {
		in, ok := v.(*ir.Instr)
		switch {
		case !ok:
			return false
		case in == obj:
			return true
		case in.Op == ir.OpGEP:
			v = in.Operands[0]
		case in.Op == ir.OpSelect:
			if derivedFrom(in.Operands[1], obj, depth+1) {
				return true
			}
			v = in.Operands[2]
		default:
			return false
		}
	}
	return true
}
