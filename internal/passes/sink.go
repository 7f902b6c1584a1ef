package passes

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/mssa"
)

// Sink moves instructions into the successor block that uses them when
// the value is used in only one successor subtree, shortening live
// ranges on paths that never need the value (the machine-code-sinking
// analogue; GridMini's device compilation reports it as a query
// source). Loads sink only when no clobber can occur between the old
// and new position, which is an alias query.
type Sink struct{}

// Name implements Pass.
func (*Sink) Name() string { return "Machine Code Sinking" }

// Run implements Pass.
func (p *Sink) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	info := ctx.CFG(fn)
	walker := ctx.MemSSA(fn)
	var users *userLists // built at the first candidate
	changed := false
	for _, b := range info.RPO {
		succs := b.Succs()
		if len(succs) != 2 {
			continue
		}
		// Candidates scanned bottom-up so chains sink together.
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Dead() || in.IsTerminator() {
				continue
			}
			if !isPureOp(in) && in.Op != ir.OpLoad {
				continue
			}
			if users == nil {
				users = newUserLists(fn)
			}
			us := users.of(in)
			target := soleUserBlock(info, us, succs)
			if target == nil || len(info.Preds(target)) != 1 {
				continue
			}
			if hasPhiUse(us) {
				continue
			}
			if in.Op == ir.OpLoad {
				// The load moves past the branch into target: nothing
				// between (trivially) but target's preceding
				// instructions are none — the move is safe only if no
				// clobber sits between old and new position; the new
				// position is target's head, so check the tail of b.
				if !tailClobberFree(walker, b, i, aa.LocOfLoad(in)) {
					continue
				}
			}
			moveToBlockHead(in, target)
			changed = true
			ctx.Stats.Add(p.Name(), "# instructions sunk", 1)
		}
	}
	if !changed {
		return analysis.All
	}
	return analysis.CFGOnly // moves instructions between existing blocks
}

// userLists holds the live users of every instruction of a function,
// one entry per operand occurrence, indexed by instruction ID: the users of the
// instruction with ID i are users[start[i]:start[i+1]]. Sink only moves
// instructions, so the lists stay exact for its whole run; a user's
// block is read from the user when it is needed.
type userLists struct {
	start []int32
	users []*ir.Instr
}

func newUserLists(fn *ir.Func) *userLists {
	n := fn.NextInstrID()
	// each calls visit(def, user) for every occurrence of an instruction
	// def of fn among the operands of a live user.
	each := func(visit func(def, user *ir.Instr)) {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				for _, op := range in.Operands {
					if d, ok := op.(*ir.Instr); ok && d.Parent != nil && d.Parent.Parent == fn {
						visit(d, in)
					}
				}
			}
		}
	}
	t := &userLists{start: make([]int32, n+1)}
	each(func(def, _ *ir.Instr) { t.start[def.ID]++ })
	for i := 1; i <= n; i++ {
		t.start[i] += t.start[i-1]
	}
	t.users = make([]*ir.Instr, t.start[n])
	each(func(def, user *ir.Instr) {
		t.start[def.ID]--
		t.users[t.start[def.ID]] = user
	})
	return t
}

// of returns the users of def, an instruction of fn's blocks.
func (t *userLists) of(def *ir.Instr) []*ir.Instr {
	return t.users[t.start[def.ID]:t.start[def.ID+1]]
}

// soleUserBlock returns the single successor (from succs) that
// dominates every one of users, or nil.
func soleUserBlock(info *cfg.Info, users []*ir.Instr, succs []*ir.Block) *ir.Block {
	var target *ir.Block
	for _, u := range users {
		var cand *ir.Block
		for _, s := range succs {
			if info.Reachable(s) && info.Dominates(s, u.Parent) {
				cand = s
				break
			}
		}
		if cand == nil {
			return nil // used outside both subtrees (or in b itself)
		}
		if target == nil {
			target = cand
		} else if target != cand {
			return nil
		}
	}
	return target
}

func hasPhiUse(users []*ir.Instr) bool {
	for _, u := range users {
		if u.Op == ir.OpPhi {
			return true
		}
	}
	return false
}

func tailClobberFree(walker *mssa.Walker, b *ir.Block, fromIdx int, loc aa.MemLoc) bool {
	for i := fromIdx + 1; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if !in.Dead() && walker.AA.InstrMayClobberLoc(in, loc, &aa.QueryCtx{Pass: "Machine Code Sinking", Func: b.Parent}) {
			return false
		}
	}
	return true
}

func moveToBlockHead(in *ir.Instr, target *ir.Block) {
	b := in.Parent
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			break
		}
	}
	// Insert after any leading phis.
	at := 0
	for at < len(target.Instrs) && target.Instrs[at].Op == ir.OpPhi {
		at++
	}
	target.Instrs = append(target.Instrs[:at], append([]*ir.Instr{in}, target.Instrs[at:]...)...)
	in.Parent = target
}

// ADCE removes side-effect-free instructions whose values are unused,
// iterating to a fixed point (aggressive dead-code elimination).
type ADCE struct{}

// Name implements Pass.
func (*ADCE) Name() string { return "ADCE" }

// Run implements Pass.
func (p *ADCE) Run(fn *ir.Func, ctx *Context) analysis.PreservedAnalyses {
	n := removeDeadCode(fn)
	if n > 0 {
		ctx.Stats.Add(p.Name(), "# instructions removed", int64(n))
		fn.Compact()
		return analysis.CFGOnly // deletes instructions, never edges
	}
	return analysis.All
}
