package aa

import "github.com/oraql/go-oraql/internal/ir"

// SteensgaardAA is a unification-based (almost-linear-time) points-to
// analysis over the whole module, the analogue of LLVM's CFLSteensAA.
// Every pointer value gets an equivalence class; classes carry a single
// points-to edge, and assignments unify. Two pointers cannot alias if
// their points-to classes differ after the fixpoint.
type SteensgaardAA struct {
	// derefRep maps each value seen during constraint generation, by
	// its clone-stable key, to the representative of the class its
	// points-to edge resolves to, computed once after the fixpoint. The
	// union-find itself (lazy deref materialization, path compression)
	// mutates on access, so it is frozen into this map at construction
	// and Alias is a pure map read — safe for concurrent queries.
	derefRep map[valueKey]int
}

type unifier struct {
	parent []int
	deref  []int // points-to edge per class representative; -1 if none
}

func (u *unifier) fresh() int {
	u.parent = append(u.parent, len(u.parent))
	u.deref = append(u.deref, -1)
	return len(u.parent) - 1
}

func (u *unifier) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// derefOf returns (creating on demand) the class a class points to.
func (u *unifier) derefOf(x int) int {
	x = u.find(x)
	if u.deref[x] == -1 {
		u.deref[x] = u.fresh()
	}
	return u.find(u.deref[x])
}

// union merges two classes, recursively merging their points-to edges
// (Steensgaard's "cjoin").
func (u *unifier) union(a, b int) {
	a, b = u.find(a), u.find(b)
	if a == b {
		return
	}
	da, db := u.deref[a], u.deref[b]
	u.parent[b] = a
	switch {
	case da == -1:
		u.deref[a] = db
	case db != -1:
		u.union(da, db)
	}
}

// steensBuilder holds the mutable unification state while constraints
// are generated; it is discarded once the result is frozen into the
// read-only SteensgaardAA.
type steensBuilder struct {
	u *unifier
	// node maps value keys to unifier node indices.
	node map[valueKey]int
}

// NewSteensgaardAA runs the unification over m and returns the analysis.
func NewSteensgaardAA(m *ir.Module) *SteensgaardAA {
	sb := &steensBuilder{u: &unifier{}, node: map[valueKey]int{}}
	get := func(v ir.Value) int {
		k, ok := keyOf(v)
		if !ok {
			return sb.u.fresh() // stays unknown to Alias
		}
		if n, ok := sb.node[k]; ok {
			return n
		}
		n := sb.u.fresh()
		sb.node[k] = n
		return n
	}
	retNode := map[string]int{}
	for _, f := range m.Funcs {
		retNode[f.Name] = sb.u.fresh()
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				sb.constrain(m, f, in, get, retNode)
			}
		}
	}
	// Freeze: resolve every value's deref class to its representative.
	// Lazily created deref nodes are fresh singletons never unified
	// afterwards, so the equality structure (all Alias ever compares)
	// does not depend on the map iteration order here.
	s := &SteensgaardAA{derefRep: make(map[valueKey]int, len(sb.node))}
	for k, n := range sb.node {
		s.derefRep[k] = sb.u.find(sb.u.derefOf(n))
	}
	return s
}

func (s *steensBuilder) constrain(m *ir.Module, f *ir.Func, in *ir.Instr, get func(ir.Value) int, retNode map[string]int) {
	u := s.u
	// Every pointer value gets a node, so fresh objects (mallocs,
	// allocas) with no further constraints keep distinct classes and
	// answer no-alias.
	if in.Ty == ir.Ptr {
		get(in)
	}
	for _, op := range in.Operands {
		if op.Type() == ir.Ptr {
			if _, isConst := op.(*ir.Const); !isConst {
				get(op)
			}
		}
	}
	switch in.Op {
	case ir.OpGEP:
		u.union(get(in), get(in.Operands[0]))
	case ir.OpSelect:
		if in.Ty == ir.Ptr {
			u.union(get(in), get(in.Operands[1]))
			u.union(get(in), get(in.Operands[2]))
		}
	case ir.OpPhi:
		if in.Ty == ir.Ptr {
			for _, op := range in.Operands {
				u.union(get(in), get(op))
			}
		}
	case ir.OpLoad:
		if in.Ty == ir.Ptr {
			u.union(get(in), u.derefOf(get(in.Operands[0])))
		}
	case ir.OpStore:
		if in.Operands[0].Type() == ir.Ptr {
			u.union(u.derefOf(get(in.Operands[1])), get(in.Operands[0]))
		}
	case ir.OpMemCpy:
		u.union(u.derefOf(get(in.Operands[0])), u.derefOf(get(in.Operands[1])))
	case ir.OpCall:
		s.constrainCall(m, in, get, retNode)
	}
}

func (s *steensBuilder) constrainCall(m *ir.Module, in *ir.Instr, get func(ir.Value) int, retNode map[string]int) {
	u := s.u
	switch in.Callee {
	case "__malloc":
		return // fresh object: the deref edge is created on demand
	case "__omp_fork", "__omp_task", "__gpu_launch":
		// Operand 0 is the callee name constant; operand 1 the shared
		// context pointer, unified with the outlined function's first
		// parameter.
		if len(in.Operands) >= 2 {
			if fn := calleeOf(m, in.Operands[0]); fn != nil && len(fn.Params) > 0 {
				u.union(get(in.Operands[1]), get(fn.Params[0]))
			}
		}
		return
	case "__mpi_sendrecv":
		if len(in.Operands) >= 2 {
			u.union(u.derefOf(get(in.Operands[0])), u.derefOf(get(in.Operands[1])))
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
			u.union(get(arg), get(callee.Params[i]))
		}
	}
	if in.Ty == ir.Ptr {
		u.union(get(in), retNode[in.Callee])
	}
	// Returns inside the callee feed the ret node.
	for _, b := range callee.Blocks {
		for _, ci := range b.Instrs {
			if ci.Op == ir.OpRet && len(ci.Operands) > 0 && ci.Operands[0].Type() == ir.Ptr {
				u.union(retNode[in.Callee], get(ci.Operands[0]))
			}
		}
	}
}

// calleeOf resolves a function-name constant operand of a fork/launch
// intrinsic to the module function.
func calleeOf(m *ir.Module, v ir.Value) *ir.Func {
	c, ok := v.(*ir.Const)
	if !ok || c.Str == "" {
		return nil
	}
	return m.FuncByName(c.Str)
}

// Name implements Analysis.
func (*SteensgaardAA) Name() string { return "cfl-steens-aa" }

// Alias implements Analysis.
func (s *SteensgaardAA) Alias(a, b MemLoc, _ *QueryCtx) Result {
	ka, ok1 := keyOf(a.Ptr)
	kb, ok2 := keyOf(b.Ptr)
	ra, ok3 := s.derefRep[ka]
	rb, ok4 := s.derefRep[kb]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		// Globals/args appear in the map only if an instruction used
		// them; unseen values have no constraints, so stay safe.
		return MayAlias
	}
	if ra != rb {
		return NoAlias
	}
	return MayAlias
}
