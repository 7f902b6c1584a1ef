package cfg

import (
	"slices"

	"github.com/oraql/go-oraql/internal/ir"
)

// Loop is a natural loop: a header block plus the set of blocks that
// can reach a back edge to the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	Blocks []*ir.Block // includes Header, in RPO
	// member holds one bit per block ID of the function at New.
	member []uint64
	// Latches are the in-loop predecessors of the header.
	Latches []*ir.Block
	// Preheader is the unique out-of-loop predecessor of the header,
	// or nil when the header has several outside predecessors.
	Preheader *ir.Block
	// Exits are the out-of-loop successor blocks of in-loop blocks.
	Exits []*ir.Block
	// Parent is the innermost enclosing loop, if any.
	Parent *Loop
	// Depth is the nesting depth (outermost = 1).
	Depth int
}

// Contains reports whether b belongs to the loop. A block made after
// the loop was found does not.
func (l *Loop) Contains(b *ir.Block) bool {
	w := b.ID >> 6
	return w < len(l.member) && l.member[w]&(1<<(b.ID&63)) != 0
}

func (l *Loop) add(b *ir.Block) { l.member[b.ID>>6] |= 1 << (b.ID & 63) }

// Loops returns all natural loops of the function, innermost first for
// equal headers and otherwise in header RPO order. The forest is
// computed once per Info and memoized; the implementation finds back
// edges (edges to a dominator) and floods backwards.
func (in *Info) Loops() []*Loop {
	if !in.loopsDone {
		in.loops = in.findLoops()
		in.loopsDone = true
	}
	return in.loops
}

func (in *Info) findLoops() []*Loop {
	words := (len(in.rpoIndex) + 63) / 64
	var order []*Loop
	byHeader := func(h *ir.Block) *Loop {
		for _, l := range order {
			if l.Header == h {
				return l
			}
		}
		return nil
	}
	for _, b := range in.RPO {
		for _, s := range b.Succs() {
			if !in.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader(s)
			if l == nil {
				l = &Loop{Header: s, member: make([]uint64, words)}
				l.add(s)
				order = append(order, l)
			}
			l.Latches = append(l.Latches, b)
			// Flood backwards from the latch to the header.
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Contains(x) {
					continue
				}
				l.add(x)
				stack = append(stack, in.Preds(x)...)
			}
		}
	}
	for _, l := range order {
		for _, b := range in.RPO {
			if l.Contains(b) {
				l.Blocks = append(l.Blocks, b)
			}
		}
		// Preheader: unique outside predecessor of the header.
		var outside []*ir.Block
		for _, p := range in.Preds(l.Header) {
			if !l.Contains(p) {
				outside = append(outside, p)
			}
		}
		if len(outside) == 1 && len(outside[0].Succs()) == 1 {
			l.Preheader = outside[0]
		}
		// Exits.
		for _, b := range l.Blocks {
			for _, s := range b.Succs() {
				if !l.Contains(s) && !slices.Contains(l.Exits, s) {
					l.Exits = append(l.Exits, s)
				}
			}
		}
	}
	// Nesting: loop A is parent of B if A contains B's header and A != B.
	for _, inner := range order {
		for _, outer := range order {
			if inner == outer || !outer.Contains(inner.Header) {
				continue
			}
			if len(outer.Blocks) <= len(inner.Blocks) {
				continue
			}
			if inner.Parent == nil || len(outer.Blocks) < len(inner.Parent.Blocks) {
				inner.Parent = outer
			}
		}
	}
	for _, l := range order {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return order
}
