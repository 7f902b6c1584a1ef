// Package mssa implements a MemorySSA-style clobber walker: given a
// memory access, it finds the nearest dominating instruction that may
// write the accessed location, issuing alias queries along the way.
// As in LLVM, the walker is the dominant source of alias queries in
// the pipeline (the paper measures 61% of Quicksilver's optimistic
// queries originating from Memory SSA); GVN, DSE, LICM and loop load
// elimination all lean on it.
package mssa

import (
	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// PassName is the analysis name attached to the walker's alias queries.
const PassName = "memory-ssa"

// Walker answers clobber queries for one function. It holds no
// per-query state: every walk scans the function's current
// instructions, so a Walker stays valid for exactly as long as its CFG
// info does — which is what lets the analysis manager cache it across
// passes that preserve the CFG.
type Walker struct {
	Fn  *ir.Func
	CFG *cfg.Info
	AA  *aa.Manager
	// Budget caps the number of blocks visited per walk, like LLVM's
	// MemorySSA walk limits; exceeded walks return conservative answers.
	Budget int

	// q is the walker's constant query attribution, allocated once.
	q aa.QueryCtx
}

// New builds a walker over fn. cfgInfo may be shared with the caller.
func New(fn *ir.Func, cfgInfo *cfg.Info, mgr *aa.Manager) *Walker {
	return &Walker{Fn: fn, CFG: cfgInfo, AA: mgr, Budget: 2048,
		q: aa.QueryCtx{Pass: PassName, Func: fn}}
}

func (w *Walker) query() *aa.QueryCtx { return &w.q }

// walkState carries one upward walk.
type walkState struct {
	w       *Walker
	loc     aa.MemLoc
	partial *ir.Block // block scanned only below the query point
	full    map[*ir.Block]bool
	budget  int

	clobbers []*ir.Instr
	entry    bool
	aborted  bool
}

// scan scans instrs [0, from) of b backwards for a clobber of loc.
func (s *walkState) scan(b *ir.Block, from int) *ir.Instr {
	for i := from - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in.Dead() {
			continue
		}
		if s.w.AA.InstrMayClobberLoc(in, s.loc, s.w.query()) {
			return in
		}
	}
	return nil
}

func (s *walkState) addClobber(c *ir.Instr) {
	for _, x := range s.clobbers {
		if x == c {
			return
		}
	}
	s.clobbers = append(s.clobbers, c)
}

// walkPreds continues the walk above the head of b.
func (s *walkState) walkPreds(b *ir.Block) {
	preds := s.w.CFG.Preds(b)
	if len(preds) == 0 {
		s.entry = true
		return
	}
	for _, p := range preds {
		if s.aborted {
			return
		}
		if p == s.partial {
			// The query block was only partially scanned; a cycle back
			// into it may hide clobbers below the query point. Bail
			// out conservatively (a MemoryPhi in LLVM terms).
			s.aborted = true
			return
		}
		if s.full[p] {
			continue // already fully scanned; contributes nothing new
		}
		if s.budget <= 0 {
			s.aborted = true
			return
		}
		s.budget--
		s.full[p] = true
		if c := s.scan(p, len(p.Instrs)); c != nil {
			s.addClobber(c)
			continue
		}
		s.walkPreds(p)
	}
}

// ClobberingDef walks upwards from `at` (exclusive) and returns the
// unique nearest instruction that may write loc. def == nil with
// unique == true means the location is live-on-entry (no write on any
// path). unique == false means different paths disagree or the walk
// budget was exhausted; callers must then be conservative.
func (w *Walker) ClobberingDef(at *ir.Instr, loc aa.MemLoc) (def *ir.Instr, unique bool) {
	s := &walkState{w: w, loc: loc, partial: at.Parent, full: map[*ir.Block]bool{}, budget: w.Budget}
	if c := s.scan(at.Parent, indexOf(at)); c != nil {
		return c, true
	}
	s.walkPreds(at.Parent)
	switch {
	case s.aborted:
		return nil, false
	case len(s.clobbers) > 1:
		return nil, false
	case len(s.clobbers) == 1 && s.entry:
		return nil, false
	case len(s.clobbers) == 1:
		return s.clobbers[0], true
	default:
		return nil, true // live-on-entry
	}
}

// NoClobberBetween reports whether no instruction strictly between def
// and use may write loc, where def dominates use. All blocks on any
// def→use CFG path are scanned, including wrap-around paths through
// loops containing either endpoint.
func (w *Walker) NoClobberBetween(def, use *ir.Instr, loc aa.MemLoc) bool {
	q := w.query()
	scanRange := func(b *ir.Block, from, to int) bool {
		for i := from; i < to; i++ {
			in := b.Instrs[i]
			if !in.Dead() && w.AA.InstrMayClobberLoc(in, loc, q) {
				return false
			}
		}
		return true
	}
	if def.Parent == use.Parent {
		if !scanRange(def.Parent, indexOf(def)+1, indexOf(use)) {
			return false
		}
		// If the shared block lies on a cycle, the value must also
		// survive the rest of the block and the whole cycle.
		if w.onCycle(def.Parent) {
			if !scanRange(def.Parent, indexOf(use), len(def.Parent.Instrs)) {
				return false
			}
			if !scanRange(def.Parent, 0, indexOf(def)) {
				return false
			}
			for _, b := range w.blocksBetween(def.Parent, def.Parent) {
				if !scanRange(b, 0, len(b.Instrs)) {
					return false
				}
			}
		}
		return true
	}
	if !scanRange(def.Parent, indexOf(def)+1, len(def.Parent.Instrs)) {
		return false
	}
	if !scanRange(use.Parent, 0, indexOf(use)) {
		return false
	}
	for _, b := range w.blocksBetween(def.Parent, use.Parent) {
		if !scanRange(b, 0, len(b.Instrs)) {
			return false
		}
	}
	// Wrap-around through a loop containing def: a path may revisit
	// def.Parent above def.
	if w.onCycle(def.Parent) {
		if !scanRange(def.Parent, 0, indexOf(def)) {
			return false
		}
	}
	// Wrap-around through a loop containing use: a later iteration's
	// use must still see def's value, so the tail of use's block counts.
	if w.onCycle(use.Parent) {
		if !scanRange(use.Parent, indexOf(use), len(use.Parent.Instrs)) {
			return false
		}
	}
	return true
}

// onCycle reports whether b can reach itself through its successors.
func (w *Walker) onCycle(b *ir.Block) bool {
	seen := map[*ir.Block]bool{}
	stack := append([]*ir.Block(nil), b.Succs()...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, x.Succs()...)
	}
	return false
}

// blocksBetween returns the blocks (excluding from and to themselves)
// lying on some CFG path from `from` to `to`.
func (w *Walker) blocksBetween(from, to *ir.Block) []*ir.Block {
	// reaches[b]: b can reach `to`.
	reaches := map[*ir.Block]bool{to: true}
	for changed := true; changed; {
		changed = false
		for _, b := range w.CFG.RPO {
			if reaches[b] {
				continue
			}
			for _, s := range b.Succs() {
				if reaches[s] {
					reaches[b] = true
					changed = true
					break
				}
			}
		}
	}
	var out []*ir.Block
	seen := map[*ir.Block]bool{from: true, to: true}
	stack := append([]*ir.Block(nil), from.Succs()...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if reaches[b] {
			out = append(out, b)
			stack = append(stack, b.Succs()...)
		}
	}
	return out
}

func indexOf(in *ir.Instr) int {
	for i, x := range in.Parent.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}
