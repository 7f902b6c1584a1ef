// Package aa implements the alias-analysis infrastructure: memory
// locations, the four-valued alias lattice, the analysis manager chain
// (first definitive answer wins, exactly like LLVM's AAResults), and
// seven conservative analyses — Basic, TypeBased, ScopedNoAlias,
// Globals, Steensgaard (CFLSteens), Andersen (CFLAnders), and ArgAttr
// (the stand-in for ObjCARCAA, which has no analogue outside
// Objective-C).
//
// The ORAQL pass (package oraql) implements the same Analysis interface
// and is appended to the end of the chain, so it only sees queries no
// conservative analysis could answer.
package aa

import (
	"fmt"

	"github.com/oraql/go-oraql/internal/ir"
)

// Result is the answer to an alias query.
type Result int

// Alias lattice values.
const (
	// MayAlias is the pessimistic default: the relationship is unknown.
	MayAlias Result = iota
	// NoAlias guarantees the two locations do not overlap.
	NoAlias
	// PartialAlias guarantees overlap but not at the same start address.
	PartialAlias
	// MustAlias guarantees both locations start at the same address.
	MustAlias
)

// String returns the canonical spelling of the result.
func (r Result) String() string {
	switch r {
	case NoAlias:
		return "no-alias"
	case PartialAlias:
		return "partial-alias"
	case MustAlias:
		return "must-alias"
	}
	return "may-alias"
}

// Definitive reports whether the result resolves the query (the chain
// stops at the first definitive answer).
func (r Result) Definitive() bool { return r != MayAlias }

// LocationSize describes how many bytes an access may touch, mirroring
// LLVM's LocationSize: either a precise byte count or unknown
// ("beforeOrAfterPointer").
type LocationSize struct {
	Known bool
	Bytes int64
}

// PreciseSize returns a known size.
func PreciseSize(n int64) LocationSize { return LocationSize{Known: true, Bytes: n} }

// UnknownSize is the beforeOrAfterPointer size.
var UnknownSize = LocationSize{}

// String renders the size the way the paper's Fig. 3 does.
func (s LocationSize) String() string {
	if s.Known {
		return fmt.Sprintf("LocationSize::precise(%d)", s.Bytes)
	}
	return "LocationSize::beforeOrAfterPointer"
}

// MemLoc is one side of an alias query: a pointer, the byte range
// accessed through it, and the access metadata of the instruction the
// query originates from.
type MemLoc struct {
	Ptr  ir.Value
	Size LocationSize

	// Access metadata (from the originating load/store), consumed by
	// TypeBasedAA and ScopedNoAliasAA.
	TBAA         string
	Scopes       []string
	NoAliasScope []string

	// Instr is the access the location describes, if any; used for
	// diagnostics (ORAQL dump output, source locations).
	Instr *ir.Instr
}

// LocOfLoad builds the memory location read by a load.
func LocOfLoad(in *ir.Instr) MemLoc {
	return MemLoc{
		Ptr: in.Operands[0], Size: PreciseSize(in.Ty.Size()),
		TBAA: in.TBAA, Scopes: in.Scopes, NoAliasScope: in.NoAliasScope, Instr: in,
	}
}

// LocOfStore builds the memory location written by a store.
func LocOfStore(in *ir.Instr) MemLoc {
	return MemLoc{
		Ptr: in.Operands[1], Size: PreciseSize(in.Operands[0].Type().Size()),
		TBAA: in.TBAA, Scopes: in.Scopes, NoAliasScope: in.NoAliasScope, Instr: in,
	}
}

// LocBefore returns an unknown-extent location around ptr, used for
// pointer arguments of calls ("beforeOrAfterPointer").
func LocBefore(ptr ir.Value, in *ir.Instr) MemLoc {
	return MemLoc{Ptr: ptr, Size: UnknownSize, Instr: in}
}

// AccessLocs returns the memory locations an instruction may access:
// (read, write); either may be a nil slice.
func AccessLocs(in *ir.Instr) (reads, writes []MemLoc) {
	return AppendReadLocs(nil, in), AppendWriteLocs(nil, in)
}

// AppendReadLocs appends the locations in may read to dst, the
// append-style form of AccessLocs' reads: a caller that passes a slice
// of a local array allocates nothing for up to its length.
func AppendReadLocs(dst []MemLoc, in *ir.Instr) []MemLoc { return appendLocs(dst, in, false) }

// AppendWriteLocs appends the locations in may write to dst, as
// AppendReadLocs does for reads.
func AppendWriteLocs(dst []MemLoc, in *ir.Instr) []MemLoc { return appendLocs(dst, in, true) }

func appendLocs(dst []MemLoc, in *ir.Instr, write bool) []MemLoc {
	switch in.Op {
	case ir.OpLoad:
		if !write {
			dst = append(dst, LocOfLoad(in))
		}
	case ir.OpStore:
		if write {
			dst = append(dst, LocOfStore(in))
		}
	case ir.OpMemCpy, ir.OpMemSet:
		sz := UnknownSize
		if c, ok := in.Operands[2].(*ir.Const); ok {
			sz = PreciseSize(c.I)
		}
		switch {
		case write:
			dst = append(dst, MemLoc{Ptr: in.Operands[0], Size: sz, Instr: in})
		case in.Op == ir.OpMemCpy:
			dst = append(dst, MemLoc{Ptr: in.Operands[1], Size: sz, Instr: in})
		}
	case ir.OpCall:
		eff := ir.CalleeEffects(in.Callee)
		if write && !eff.Writes || !write && !eff.Reads {
			break
		}
		for _, op := range in.Operands {
			if op.Type() == ir.Ptr {
				dst = append(dst, LocBefore(op, in))
			}
		}
	}
	return dst
}

// QueryCtx carries compilation context alongside a query: which pass is
// asking (for the paper's per-pass attribution) and which function the
// pointers live in.
type QueryCtx struct {
	Pass string
	Func *ir.Func
}

// Analysis is one alias analysis in the manager chain.
type Analysis interface {
	// Name identifies the analysis in statistics and reports.
	Name() string
	// Alias answers a query, returning MayAlias when unsure.
	Alias(a, b MemLoc, q *QueryCtx) Result
}
