package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of the module and returns an
// error describing the first violation found. Passes are expected to
// leave modules in a verifiable state; the pipeline verifies after the
// frontend and after the full pass pipeline.
func Verify(m *Module) error { return VerifyExcept(m, nil) }

// VerifyExcept is Verify without the per-function checks of the
// functions m.Funcs[fi] for which skip(fi) reports true; the
// module-level checks still run. A body's check reads only the body
// and the function names and globals of its module, so a caller may
// skip a body that is unchanged since it passed in a module with the
// same function names and globals. A nil skip checks every function.
func VerifyExcept(m *Module, skip func(fi int) bool) error {
	seen := map[string]bool{}
	for fi, f := range m.Funcs {
		if seen[f.Name] {
			return fmt.Errorf("duplicate function %q", f.Name)
		}
		seen[f.Name] = true
		if skip != nil && skip(fi) {
			continue
		}
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Func) error {
	if len(f.Blocks) == 0 {
		return errors.New("no blocks")
	}
	// Block and instruction IDs, dead instructions' included, are
	// unique and below the next-ID counters: analyses keep per-function
	// facts in tables indexed by them, and VIDs are built from them.
	blockByID := make([]*Block, f.nextBlockID)
	instrByID := make([]*Instr, f.nextInstrID)
	for _, b := range f.Blocks {
		if b.Parent != f {
			return fmt.Errorf("block %s has wrong parent", b.Name)
		}
		if uint(b.ID) >= uint(len(blockByID)) {
			return fmt.Errorf("block %s: ID %d not below NextBlockID %d", b.Name, b.ID, len(blockByID))
		}
		if blockByID[b.ID] != nil {
			return fmt.Errorf("block %s: ID %d repeats block %s's", b.Name, b.ID, blockByID[b.ID].Name)
		}
		blockByID[b.ID] = b
		for _, in := range b.Instrs {
			if uint(in.ID) >= uint(len(instrByID)) {
				return fmt.Errorf("block %s: instr %s: ID not below NextInstrID %d", b.Name, in.Ident(), len(instrByID))
			}
			if instrByID[in.ID] != nil {
				return fmt.Errorf("block %s: instr %s: ID repeats", b.Name, in.Ident())
			}
			instrByID[in.ID] = in
		}
	}
	dom := newDomChecker(f)
	for _, b := range f.Blocks {
		term := b.Term()
		if term == nil {
			return fmt.Errorf("block %s: missing terminator", b.Name)
		}
		sawTerm := false
		for _, in := range b.Instrs {
			if in.dead {
				continue
			}
			if sawTerm {
				return fmt.Errorf("block %s: instruction after terminator", b.Name)
			}
			if in.IsTerminator() {
				sawTerm = true
			}
			if in.Parent != b {
				return fmt.Errorf("block %s: instr %s has wrong parent", b.Name, in.Ident())
			}
			for _, s := range in.Succs {
				if uint(s.ID) >= uint(len(blockByID)) || blockByID[s.ID] != s {
					return fmt.Errorf("block %s: branch to foreign block %s", b.Name, s.Name)
				}
			}
			if in.Op == OpPhi {
				if len(in.Operands) != len(in.Incoming) {
					return fmt.Errorf("phi %s: %d values, %d incoming blocks", in.Ident(), len(in.Operands), len(in.Incoming))
				}
			}
			if in.Op == OpCall && !IsIntrinsic(in.Callee) && m.FuncByName(in.Callee) == nil {
				return fmt.Errorf("call to undefined function %q", in.Callee)
			}
			for _, op := range in.Operands {
				switch v := op.(type) {
				case *Const:
					// always fine
				case *Global:
					if m.GlobalByName(v.Name) != v {
						return fmt.Errorf("instr %s: foreign global %s", in.Ident(), v.Name)
					}
				case *Arg:
					if v.Func != f {
						return fmt.Errorf("instr %s: argument of another function", in.Ident())
					}
				case *Instr:
					if v.dead {
						return fmt.Errorf("instr %s: uses dead value %s", in.Ident(), v.Ident())
					}
					if uint(v.ID) >= uint(len(instrByID)) || instrByID[v.ID] != v {
						return fmt.Errorf("instr %s: uses undefined value %s", in.Ident(), v.Ident())
					}
					if !dom.defDominatesUse(v, in) {
						return fmt.Errorf("instr %s in %s: operand %s (in %s) does not dominate the use",
							in.Ident(), b.Name, v.Ident(), v.Parent.Name)
					}
				default:
					return fmt.Errorf("instr %s: unknown operand kind %T", in.Ident(), op)
				}
			}
		}
	}
	return nil
}

// domChecker computes dominators for the verifier (duplicated from
// package cfg to avoid an import cycle; the verifier is deliberately
// self-contained).
type domChecker struct {
	idom     map[*Block]*Block
	rpoIndex map[*Block]int
	reach    map[*Block]bool
}

func newDomChecker(f *Func) *domChecker {
	n := len(f.Blocks)
	d := &domChecker{idom: make(map[*Block]*Block, n), rpoIndex: make(map[*Block]int, n), reach: make(map[*Block]bool, n)}
	preds := make(map[*Block][]*Block, n)
	post := make([]*Block, 0, n)
	visited := make(map[*Block]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b] = true
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	rpo := make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		d.rpoIndex[post[i]] = len(rpo)
		rpo = append(rpo, post[i])
		d.reach[post[i]] = true
	}
	entry := f.Entry()
	d.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var ni *Block
			for _, p := range preds[b] {
				if _, ok := d.idom[p]; !ok {
					continue
				}
				if ni == nil {
					ni = p
				} else {
					ni = d.intersect(p, ni)
				}
			}
			if ni != nil && d.idom[b] != ni {
				d.idom[b] = ni
				changed = true
			}
		}
	}
	return d
}

func (d *domChecker) intersect(a, b *Block) *Block {
	for a != b {
		for d.rpoIndex[a] > d.rpoIndex[b] {
			a = d.idom[a]
		}
		for d.rpoIndex[b] > d.rpoIndex[a] {
			b = d.idom[b]
		}
	}
	return a
}

func (d *domChecker) dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		id, ok := d.idom[b]
		if !ok || id == b {
			return false
		}
		b = id
	}
}

// defDominatesUse checks SSA dominance; uses in phis are checked at the
// incoming edge, and unreachable uses are exempt.
func (d *domChecker) defDominatesUse(def *Instr, use *Instr) bool {
	if !d.reach[use.Parent] || !d.reach[def.Parent] {
		return true // unreachable code is cleaned up later
	}
	if use.Op == OpPhi {
		for i, v := range use.Operands {
			if v != Value(def) {
				continue
			}
			from := use.Incoming[i]
			if !d.reach[from] {
				continue
			}
			if def.Parent == from {
				continue // defined somewhere in the predecessor
			}
			if !d.dominates(def.Parent, from) {
				return false
			}
		}
		return true
	}
	if def.Parent == use.Parent {
		for _, in := range def.Parent.Instrs {
			if in == def {
				return true
			}
			if in == use {
				return false
			}
		}
		return false
	}
	return d.dominates(def.Parent, use.Parent)
}
