package aa

import "github.com/oraql/go-oraql/internal/ir"

// AndersenAA is an inclusion-based points-to analysis over the whole
// module, the analogue of LLVM's CFLAndersAA. It computes, for every
// pointer value, the set of abstract objects (allocas, globals, malloc
// sites) it may point to; two pointers with disjoint non-empty sets
// cannot alias.
type AndersenAA struct {
	// node indices: one per pointer value, by its clone-stable key,
	// plus one "contents" node per abstract object.
	node map[valueKey]int
	pts  []map[int]bool // node -> object set (objects are node indices of their contents nodes' owners)
	// copyEdges: src -> dst list (pts(dst) ⊇ pts(src)).
	copyEdges [][]int
	// loadFrom / storeTo are complex constraints resolved iteratively.
	loads  []pair // (p, q): q = load p  => for o in pts(p): contents(o) -> q
	stores []pair // (v, p): store v, p  => for o in pts(p): v -> contents(o)
	copies []pair // (src, dst) memcpy/sendrecv: contents flow both handled as two entries
	// contents(o) node index per object id.
	contents map[int]int
	nextNode int
}

type pair struct{ a, b int }

// NewAndersenAA runs the solver over m and returns the analysis.
func NewAndersenAA(m *ir.Module) *AndersenAA {
	an := &AndersenAA{node: map[valueKey]int{}, contents: map[int]int{}}
	get := func(v ir.Value) int {
		k, ok := keyOf(v)
		if !ok {
			return an.newNode() // stays unknown to Alias
		}
		if n, ok := an.node[k]; ok {
			return n
		}
		n := an.newNode()
		an.node[k] = n
		return n
	}
	retNode := map[string]int{}
	for _, f := range m.Funcs {
		retNode[f.Name] = an.newNode()
	}
	addBase := func(v ir.Value) {
		n := get(v)
		an.pts[n][n] = true // the value points to the object identified by its own node id
	}
	for _, g := range m.Globals {
		addBase(g)
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				switch in.Op {
				case ir.OpAlloca:
					addBase(in)
				case ir.OpGEP:
					an.copyEdge(get(in.Operands[0]), get(in))
				case ir.OpSelect:
					if in.Ty == ir.Ptr {
						an.copyEdge(get(in.Operands[1]), get(in))
						an.copyEdge(get(in.Operands[2]), get(in))
					}
				case ir.OpPhi:
					if in.Ty == ir.Ptr {
						for _, op := range in.Operands {
							an.copyEdge(get(op), get(in))
						}
					}
				case ir.OpLoad:
					if in.Ty == ir.Ptr {
						an.loads = append(an.loads, pair{get(in.Operands[0]), get(in)})
					}
				case ir.OpStore:
					if in.Operands[0].Type() == ir.Ptr {
						an.stores = append(an.stores, pair{get(in.Operands[0]), get(in.Operands[1])})
					}
				case ir.OpMemCpy:
					an.copies = append(an.copies, pair{get(in.Operands[1]), get(in.Operands[0])})
				case ir.OpCall:
					an.constrainCall(m, in, get, retNode, addBase)
				}
			}
		}
	}
	an.solve()
	return an
}

func (an *AndersenAA) newNode() int {
	an.pts = append(an.pts, map[int]bool{})
	an.copyEdges = append(an.copyEdges, nil)
	an.nextNode++
	return an.nextNode - 1
}

func (an *AndersenAA) copyEdge(src, dst int) {
	an.copyEdges[src] = append(an.copyEdges[src], dst)
}

// contentsOf returns the node holding the pointer contents of object o.
func (an *AndersenAA) contentsOf(o int) int {
	if c, ok := an.contents[o]; ok {
		return c
	}
	c := an.newNode()
	an.contents[o] = c
	return c
}

func (an *AndersenAA) constrainCall(m *ir.Module, in *ir.Instr, get func(ir.Value) int, retNode map[string]int, addBase func(ir.Value)) {
	switch in.Callee {
	case "__malloc":
		addBase(in)
		return
	case "__omp_fork", "__omp_task", "__gpu_launch":
		if len(in.Operands) >= 2 {
			if fn := calleeOf(m, in.Operands[0]); fn != nil && len(fn.Params) > 0 {
				an.copyEdge(get(in.Operands[1]), get(fn.Params[0]))
			}
		}
		return
	case "__mpi_sendrecv":
		if len(in.Operands) >= 2 {
			an.copies = append(an.copies,
				pair{get(in.Operands[0]), get(in.Operands[1])},
				pair{get(in.Operands[1]), get(in.Operands[0])})
		}
		return
	}
	if ir.IsIntrinsic(in.Callee) {
		return
	}
	callee := m.FuncByName(in.Callee)
	if callee == nil {
		return
	}
	for i, arg := range in.Operands {
		if i < len(callee.Params) && arg.Type() == ir.Ptr {
			an.copyEdge(get(arg), get(callee.Params[i]))
		}
	}
	if in.Ty == ir.Ptr {
		an.copyEdge(retNode[in.Callee], get(in))
	}
	for _, b := range callee.Blocks {
		for _, ci := range b.Instrs {
			if ci.Op == ir.OpRet && len(ci.Operands) > 0 && ci.Operands[0].Type() == ir.Ptr {
				an.copyEdge(get(ci.Operands[0]), retNode[in.Callee])
			}
		}
	}
}

// solve iterates copy propagation and complex constraints to fixpoint.
func (an *AndersenAA) solve() {
	changed := true
	flow := func(src, dst int) bool {
		grew := false
		for o := range an.pts[src] {
			if !an.pts[dst][o] {
				an.pts[dst][o] = true
				grew = true
			}
		}
		return grew
	}
	for changed {
		changed = false
		for src, dsts := range an.copyEdges {
			for _, dst := range dsts {
				if flow(src, dst) {
					changed = true
				}
			}
		}
		for _, ld := range an.loads { // q = load p
			for o := range an.pts[ld.a] {
				if flow(an.contentsOf(o), ld.b) {
					changed = true
				}
			}
		}
		for _, st := range an.stores { // store v, p
			for o := range an.pts[st.b] {
				if flow(st.a, an.contentsOf(o)) {
					changed = true
				}
			}
		}
		for _, cp := range an.copies { // contents(dst objs) ⊇ contents(src objs)
			for os := range an.pts[cp.a] {
				for od := range an.pts[cp.b] {
					if flow(an.contentsOf(os), an.contentsOf(od)) {
						changed = true
					}
				}
			}
		}
	}
}

// Name implements Analysis.
func (*AndersenAA) Name() string { return "cfl-anders-aa" }

// Alias implements Analysis.
func (an *AndersenAA) Alias(a, b MemLoc, _ *QueryCtx) Result {
	ka, ok1 := keyOf(a.Ptr)
	kb, ok2 := keyOf(b.Ptr)
	na, ok3 := an.node[ka]
	nb, ok4 := an.node[kb]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return MayAlias
	}
	pa, pb := an.pts[na], an.pts[nb]
	if len(pa) == 0 || len(pb) == 0 {
		// A pointer with an empty set flowed from something we do not
		// model; do not claim anything.
		return MayAlias
	}
	for o := range pa {
		if pb[o] {
			return MayAlias
		}
	}
	return NoAlias
}
