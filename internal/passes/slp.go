package passes

import (
	"sort"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// SLPVectorize fuses groups of four isomorphic scalar computations that
// feed four stores to consecutive addresses into vector instructions
// (superword-level parallelism). Legality needs alias queries: the
// loads being fused, and any other reads in the fused region, must be
// disjoint from the stored range — the source of MiniFE's "+33% vector
// instructions" row in Fig. 6.
type SLPVectorize struct{}

// Name implements Pass.
func (*SLPVectorize) Name() string { return "SLP Vectorizer" }

// Run implements Pass.
func (p *SLPVectorize) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	// attempted remembers store groups that failed legality within this
	// Run invocation, so the group finder can skip them. It must be
	// local: sharing it would leak verdicts across functions, and race
	// between concurrent compilations that share a pipeline.
	attempted := map[*ir.Instr]bool{}
	for _, b := range fn.Blocks {
		for {
			group := findStoreGroup(b, attempted)
			if group == nil {
				break
			}
			if !p.vectorizeGroup(fn, ctx, b, group) {
				// Mark the lead store as attempted so we do not loop.
				attempted[group[0]] = true
				continue
			}
			changed = true
		}
	}
	if !changed {
		return analysis.All
	}
	fn.Compact()
	removeDeadCode(fn)
	return analysis.CFGOnly // rewrites instructions within blocks
}

// findStoreGroup locates four stores of the same scalar type to
// consecutive addresses (stride 8) off one base, in ascending offset
// order, with no duplicate offsets, skipping groups whose lead store
// already failed legality this Run (attempted).
func findStoreGroup(b *ir.Block, attempted map[*ir.Instr]bool) []*ir.Instr {
	type cand struct {
		in  *ir.Instr
		off int64
	}
	byBase := map[int64][]cand{}
	var baseOrder []int64
	for _, in := range b.Instrs {
		if in.Dead() || in.Op != ir.OpStore {
			continue
		}
		vt := in.Operands[0].Type()
		if vt != ir.F64 && vt != ir.I64 {
			continue
		}
		base, off := slpDecompose(in.Operands[1])
		k := base.VID()
		if _, seen := byBase[k]; !seen {
			baseOrder = append(baseOrder, k)
		}
		byBase[k] = append(byBase[k], cand{in, off})
	}
	for _, k := range baseOrder {
		cands := byBase[k]
		if len(cands) < 4 {
			continue
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].off < cands[j].off })
		for i := 0; i+3 < len(cands); i++ {
			ok := true
			for j := 1; j < 4; j++ {
				if cands[i+j].off != cands[i].off+int64(8*j) {
					ok = false
					break
				}
			}
			if !ok || attempted[cands[i].in] {
				continue
			}
			// Duplicate offsets within the window disqualify.
			if i+4 < len(cands) && cands[i+4].off == cands[i+3].off {
				continue
			}
			if i > 0 && cands[i-1].off == cands[i].off {
				continue
			}
			return []*ir.Instr{cands[i].in, cands[i+1].in, cands[i+2].in, cands[i+3].in}
		}
	}
	return nil
}

// laneNode is one node of the isomorphic tree match: for each of the 4
// lanes either the same opcode (recurse) or a common scalar / matched
// consecutive loads.
func (p *SLPVectorize) vectorizeGroup(fn *ir.Func, ctx *Context, b *ir.Block, stores []*ir.Instr) bool {
	idx := map[*ir.Instr]int{}
	for i, in := range b.Instrs {
		idx[in] = i
	}
	grouped := map[*ir.Instr]bool{}
	for _, s := range stores {
		grouped[s] = true
	}
	var groupLoads [][]*ir.Instr // load quads, lane-ordered

	// match returns, for the 4 lane values, a builder closure producing
	// the vector value, or nil if not isomorphic.
	var match func(vals [4]ir.Value, depth int) func(bld *builderAt) ir.Value
	match = func(vals [4]ir.Value, depth int) func(bld *builderAt) ir.Value {
		if depth > 6 {
			return nil
		}
		// Common scalar across lanes -> splat. Constants compare by
		// value (every literal is a distinct *ir.Const object).
		if sameLaneScalar(vals) {
			v := vals[0]
			return func(bld *builderAt) ir.Value { return bld.splat(v) }
		}
		ins := [4]*ir.Instr{}
		for i, v := range vals {
			in, ok := v.(*ir.Instr)
			if !ok || in.Parent != b {
				return nil
			}
			ins[i] = in
		}
		op := ins[0].Op
		for _, in := range ins[1:] {
			if in.Op != op {
				return nil
			}
		}
		switch op {
		case ir.OpLoad:
			base0, off0 := slpDecompose(ins[0].Operands[0])
			for i := 1; i < 4; i++ {
				bi, oi := slpDecompose(ins[i].Operands[0])
				if bi != base0 || oi != off0+int64(8*i) {
					return nil
				}
			}
			quad := []*ir.Instr{ins[0], ins[1], ins[2], ins[3]}
			groupLoads = append(groupLoads, quad)
			lead := ins[0]
			return func(bld *builderAt) ir.Value { return bld.vload(lead) }
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			var l, r [4]ir.Value
			for i := 0; i < 4; i++ {
				l[i], r[i] = ins[i].Operands[0], ins[i].Operands[1]
			}
			lf := match(l, depth+1)
			if lf == nil {
				return nil
			}
			rf := match(r, depth+1)
			if rf == nil {
				return nil
			}
			elem := ins[0].Ty
			return func(bld *builderAt) ir.Value {
				return bld.bin(op, elem, lf(bld), rf(bld))
			}
		}
		return nil
	}

	var vals [4]ir.Value
	for i, s := range stores {
		vals[i] = s.Operands[0]
	}
	rootF := match(vals, 0)
	if rootF == nil {
		return false
	}

	// Region safety: compute span [min, max] over grouped instrs.
	minI, maxI := idx[stores[0]], idx[stores[0]]
	consider := func(in *ir.Instr) {
		if idx[in] < minI {
			minI = idx[in]
		}
		if idx[in] > maxI {
			maxI = idx[in]
		}
	}
	for _, s := range stores {
		consider(s)
	}
	for _, quad := range groupLoads {
		for _, l := range quad {
			grouped[l] = true
			consider(l)
		}
	}
	// Alias queries: stored range vs every grouped load and every other
	// read in the span; other writers in the span disqualify outright.
	q := ctx.Query(fn)
	storeLocs := make([]aa.MemLoc, len(stores))
	for i, s := range stores {
		storeLocs[i] = aa.LocOfStore(s)
	}
	checkDisjoint := func(loc aa.MemLoc) bool {
		for _, sl := range storeLocs {
			if ctx.AA.Alias(sl, loc, q) != aa.NoAlias {
				return false
			}
		}
		return true
	}
	for _, quad := range groupLoads {
		for _, l := range quad {
			if !checkDisjoint(aa.LocOfLoad(l)) {
				return false
			}
		}
	}
	for i := minI; i <= maxI; i++ {
		in := b.Instrs[i]
		if in.Dead() || grouped[in] {
			continue
		}
		if in.WritesMemory() {
			return false
		}
		if in.ReadsMemory() {
			if in.Op != ir.OpLoad || !checkDisjoint(aa.LocOfLoad(in)) {
				return false
			}
		}
	}

	// Emit the vector code before the last grouped store.
	anchor := b.Instrs[maxI]
	bld := &builderAt{fn: fn, b: b, anchor: anchor, splats: map[ir.Value]ir.Value{}, vloads: map[*ir.Instr]ir.Value{}}
	vec := rootF(bld)
	vstore := &ir.Instr{Op: ir.OpStore, Ty: ir.Void,
		Operands: []ir.Value{vec, stores[0].Operands[1]}, TBAA: stores[0].TBAA, Loc: stores[0].Loc}
	insertBefore(b, anchor, vstore, fn)
	bld.count++
	for _, s := range stores {
		s.MarkDead()
	}
	ctx.Stats.Add(p.Name(), "# vector instructions generated", int64(bld.count))
	return true
}

// sameLaneScalar reports whether all four lane values are the same
// scalar: identical SSA values, or constants with equal payloads.
func sameLaneScalar(vals [4]ir.Value) bool {
	if vals[0] == vals[1] && vals[1] == vals[2] && vals[2] == vals[3] {
		return true
	}
	c0, ok := vals[0].(*ir.Const)
	if !ok {
		return false
	}
	for _, v := range vals[1:] {
		c, ok := v.(*ir.Const)
		if !ok || c.Ty != c0.Ty || c.I != c0.I || c.F != c0.F || c.Str != c0.Str {
			return false
		}
	}
	return true
}

// slpDecompose walks constant-offset GEP links, stopping at the first
// variable-index GEP (which becomes the symbolic base): store groups
// like blk[0..3] with blk = A + e*4 share that GEP as their base.
func slpDecompose(ptr ir.Value) (base ir.Value, off int64) {
	base = ptr
	for depth := 0; depth < 64; depth++ {
		in, ok := base.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			return base, off
		}
		if len(in.Operands) > 1 {
			c, isC := in.Operands[1].(*ir.Const)
			if !isC {
				return base, off // variable index: symbolic base
			}
			off += c.I * in.Scale
		}
		off += in.Off
		base = in.Operands[0]
	}
	return base, off
}

// builderAt emits vector instructions before an anchor instruction.
type builderAt struct {
	fn     *ir.Func
	b      *ir.Block
	anchor *ir.Instr
	splats map[ir.Value]ir.Value
	vloads map[*ir.Instr]ir.Value
	count  int
}

func (bld *builderAt) emit(in *ir.Instr) ir.Value {
	insertBefore(bld.b, bld.anchor, in, bld.fn)
	bld.count++
	return in
}

func (bld *builderAt) splat(v ir.Value) ir.Value {
	if s, ok := bld.splats[v]; ok {
		return s
	}
	s := bld.emit(&ir.Instr{Op: ir.OpVSplat, Ty: ir.VecType(v.Type(), 4), Operands: []ir.Value{v}, Name: "slp.splat"})
	bld.splats[v] = s
	return s
}

func (bld *builderAt) vload(lead *ir.Instr) ir.Value {
	if v, ok := bld.vloads[lead]; ok {
		return v
	}
	v := bld.emit(&ir.Instr{Op: ir.OpLoad, Ty: ir.VecType(lead.Ty, 4),
		Operands: []ir.Value{lead.Operands[0]}, TBAA: lead.TBAA, Loc: lead.Loc, Name: "slp.load"})
	bld.vloads[lead] = v
	return v
}

func (bld *builderAt) bin(op ir.Opcode, elem *ir.Type, x, y ir.Value) ir.Value {
	return bld.emit(&ir.Instr{Op: op, Ty: ir.VecType(elem, 4), Operands: []ir.Value{x, y}, Name: "slp.op"})
}
