// Package cfg provides control-flow-graph analyses over the IR:
// predecessor lists, reverse postorder, dominator trees
// (Cooper–Harvey–Kennedy), and natural-loop detection. These back the
// loop passes (LICM, loop deletion, vectorization) and the MemorySSA
// walker.
//
// Every per-block fact lives in a slice indexed by block ID, which
// ir.Verify keeps unique and below the function's NextBlockID. A block
// made after New has an ID past the tables and reads as unreachable,
// with no predecessors and no immediate dominator.
package cfg

import "github.com/oraql/go-oraql/internal/ir"

// Info bundles the CFG analyses of one function. Build it with New;
// it is invalidated by any CFG edit.
type Info struct {
	Fn *ir.Func

	// RPO is the reverse postorder over reachable blocks.
	RPO []*ir.Block

	// preds holds every block's predecessors, back to back; the
	// predecessors of the block with ID i are preds[predStart[i]:predStart[i+1]].
	preds     []*ir.Block
	predStart []int32

	// rpoIndex is each block's position in RPO, -1 when unreachable.
	rpoIndex []int32

	// idom is each reachable block's immediate dominator (the entry
	// block's is itself), nil for an unreachable block.
	idom []*ir.Block

	// loops memoizes the natural-loop forest: an Info is immutable once
	// built (any CFG edit invalidates it wholesale), so the forest is
	// computed at most once no matter how many passes consult it.
	loops     []*Loop
	loopsDone bool
}

// New computes CFG analyses for f.
func New(f *ir.Func) *Info {
	info := &Info{Fn: f}
	info.buildOrder()
	info.buildDom()
	return info
}

// has reports whether b has a row in the tables.
func (in *Info) has(b *ir.Block) bool { return b.ID < len(in.rpoIndex) }

// buildOrder walks the CFG depth first from the entry block, recording
// each edge's source as a predecessor of its target in discovery order,
// and numbers the reachable blocks in reverse postorder.
func (in *Info) buildOrder() {
	f := in.Fn
	n := f.NextBlockID()
	// rpoIndex doubles as the visited mark: -1 until the walk reaches
	// a block, its RPO position afterwards.
	in.rpoIndex = make([]int32, n)
	for i := range in.rpoIndex {
		in.rpoIndex[i] = -1
	}
	type edge struct{ from, to *ir.Block }
	type frame struct {
		b     *ir.Block
		succs []*ir.Block
	}
	edges := make([]edge, 0, 2*len(f.Blocks))
	post := make([]*ir.Block, 0, len(f.Blocks))
	entry := f.Entry()
	in.rpoIndex[entry.ID] = 0
	stack := []frame{{entry, entry.Succs()}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.succs) == 0 {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		b, s := top.b, top.succs[0]
		top.succs = top.succs[1:]
		edges = append(edges, edge{b, s})
		if in.rpoIndex[s.ID] < 0 {
			in.rpoIndex[s.ID] = 0
			stack = append(stack, frame{s, s.Succs()})
		}
	}
	in.RPO = make([]*ir.Block, len(post))
	for i, b := range post {
		k := len(post) - 1 - i
		in.RPO[k] = b
		in.rpoIndex[b.ID] = int32(k)
	}

	// Bucket the edges by target; filling each bucket from its end
	// while walking the edges backwards keeps discovery order.
	in.predStart = make([]int32, n+1)
	for _, e := range edges {
		in.predStart[e.to.ID]++
	}
	for i := 1; i <= n; i++ {
		in.predStart[i] += in.predStart[i-1]
	}
	in.preds = make([]*ir.Block, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		in.predStart[e.to.ID]--
		in.preds[in.predStart[e.to.ID]] = e.from
	}
}

// buildDom implements the Cooper–Harvey–Kennedy iterative dominator
// algorithm over the reverse postorder.
func (in *Info) buildDom() {
	entry := in.Fn.Entry()
	in.idom = make([]*ir.Block, len(in.rpoIndex))
	in.idom[entry.ID] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range in.RPO {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range in.Preds(b) {
				if in.idom[p.ID] == nil {
					continue // not yet processed / unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = in.intersect(p, newIdom)
				}
			}
			if newIdom != nil && in.idom[b.ID] != newIdom {
				in.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
}

func (in *Info) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for in.rpoIndex[a.ID] > in.rpoIndex[b.ID] {
			a = in.idom[a.ID]
		}
		for in.rpoIndex[b.ID] > in.rpoIndex[a.ID] {
			b = in.idom[b.ID]
		}
	}
	return a
}

// Preds returns b's predecessors in deterministic (depth-first
// discovery) order. The slice is shared; callers must not modify it.
func (in *Info) Preds(b *ir.Block) []*ir.Block {
	if !in.has(b) {
		return nil
	}
	lo, hi := in.predStart[b.ID], in.predStart[b.ID+1]
	return in.preds[lo:hi:hi]
}

// IDom returns the immediate dominator of b (entry returns itself).
func (in *Info) IDom(b *ir.Block) *ir.Block {
	if !in.has(b) {
		return nil
	}
	return in.idom[b.ID]
}

// Dominates reports whether a dominates b (reflexively).
func (in *Info) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		id := in.IDom(b)
		if id == nil || id == b {
			return false
		}
		b = id
	}
}

// Reachable reports whether b is reachable from the entry block.
func (in *Info) Reachable(b *ir.Block) bool {
	return in.has(b) && in.rpoIndex[b.ID] >= 0
}

// DominatesInstr reports whether the definition a dominates the use
// site u. Both must be in the same function; non-instruction values
// (arguments, constants, globals) dominate everything.
func (in *Info) DominatesInstr(a ir.Value, u *ir.Instr) bool {
	ai, ok := a.(*ir.Instr)
	if !ok {
		return true
	}
	if ai.Parent == u.Parent {
		return instrIndex(ai) < instrIndex(u)
	}
	return in.Dominates(ai.Parent, u.Parent)
}

func instrIndex(x *ir.Instr) int {
	for i, in := range x.Parent.Instrs {
		if in == x {
			return i
		}
	}
	return -1
}
