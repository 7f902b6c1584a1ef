package passes

import (
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/ir"
)

// SimplifyCFG folds constant branches, deletes unreachable blocks, and
// merges straight-line block chains. It keeps the CFG canonical for
// the loop passes; it issues no alias queries.
type SimplifyCFG struct{}

// Name implements Pass.
func (*SimplifyCFG) Name() string { return "simplifycfg" }

// Run implements Pass.
func (p *SimplifyCFG) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	changed := false
	for {
		round := foldConstBranches(fn)
		round = removeUnreachable(fn) || round
		round = mergeChains(fn) || round
		if !round {
			break
		}
		changed = true
		ctx.Stats.Add(p.Name(), "Number of CFG simplification rounds", 1)
	}
	if !changed {
		return analysis.All
	}
	return analysis.None // block structure changed
}

func foldConstBranches(fn *ir.Func) bool {
	changed := false
	for _, b := range fn.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpBr || len(t.Succs) != 2 {
			continue
		}
		c, ok := constOf(t.Operands[0])
		if !ok {
			continue
		}
		taken, dropped := t.Succs[0], t.Succs[1]
		if c == 0 {
			taken, dropped = dropped, taken
		}
		t.Operands = nil
		t.Succs = []*ir.Block{taken}
		if dropped != taken {
			removePhiIncoming(dropped, b)
		}
		changed = true
	}
	return changed
}

func removePhiIncoming(blk, pred *ir.Block) {
	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi || in.Dead() {
			continue
		}
		for i := 0; i < len(in.Incoming); {
			if in.Incoming[i] == pred {
				in.Incoming = append(in.Incoming[:i], in.Incoming[i+1:]...)
				in.Operands = append(in.Operands[:i], in.Operands[i+1:]...)
			} else {
				i++
			}
		}
	}
}

func removeUnreachable(fn *ir.Func) bool {
	reachable := map[*ir.Block]bool{}
	stack := []*ir.Block{fn.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[b] {
			continue
		}
		reachable[b] = true
		stack = append(stack, b.Succs()...)
	}
	if len(reachable) == len(fn.Blocks) {
		return false
	}
	var kept []*ir.Block
	for _, b := range fn.Blocks {
		if reachable[b] {
			kept = append(kept, b)
		} else {
			for _, s := range b.Succs() {
				if reachable[s] {
					removePhiIncoming(s, b)
				}
			}
			for _, in := range b.Instrs {
				in.MarkDead()
			}
		}
	}
	fn.Blocks = kept
	// Dropped blocks may have defined values used by (now also
	// removed) code only; clean leftovers defensively.
	removeDeadCode(fn)
	return true
}

func mergeChains(fn *ir.Func) bool {
	changed := false
	for {
		merged := false
		predCount := map[*ir.Block]int{}
		for _, b := range fn.Blocks {
			for _, s := range b.Succs() {
				predCount[s]++
			}
		}
		for _, b := range fn.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpBr || len(t.Succs) != 1 {
				continue
			}
			c := t.Succs[0]
			if c == b || c == fn.Entry() || predCount[c] != 1 {
				continue
			}
			// Phis in c have exactly one incoming (from b): fold them.
			for _, in := range c.Instrs {
				if in.Op == ir.OpPhi && !in.Dead() {
					if len(in.Operands) != 1 {
						return changed // malformed; bail
					}
					fn.ReplaceAllUses(in, in.Operands[0])
					in.MarkDead()
				}
			}
			c.Compact()
			t.MarkDead()
			b.Compact()
			for _, in := range c.Instrs {
				in.Parent = b
			}
			b.Instrs = append(b.Instrs, c.Instrs...)
			c.Instrs = nil
			// Phis in c's successors now flow from b.
			for _, s := range b.Succs() {
				for _, in := range s.Instrs {
					if in.Op == ir.OpPhi && !in.Dead() {
						for i, ib := range in.Incoming {
							if ib == c {
								in.Incoming[i] = b
							}
						}
					}
				}
			}
			// Drop c from the block list.
			for i, x := range fn.Blocks {
				if x == c {
					fn.Blocks = append(fn.Blocks[:i], fn.Blocks[i+1:]...)
					break
				}
			}
			merged = true
			changed = true
			break // block list changed; restart scan
		}
		if !merged {
			return changed
		}
	}
}
