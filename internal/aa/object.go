package aa

import "github.com/oraql/go-oraql/internal/ir"

// UnderlyingObject strips GEPs (and, through select, both sides when
// they agree) to find the base object a pointer is derived from.
// Returns nil when the chain passes through a load, phi, select with
// distinct bases, or call result other than __malloc.
func UnderlyingObject(v ir.Value) ir.Value {
	for depth := 0; depth < 64; depth++ {
		in, ok := v.(*ir.Instr)
		if !ok {
			return v // Arg, Global, Const
		}
		switch in.Op {
		case ir.OpGEP:
			v = in.Operands[0]
		case ir.OpSelect:
			a := UnderlyingObject(in.Operands[1])
			b := UnderlyingObject(in.Operands[2])
			if a != nil && a == b {
				return a
			}
			return nil
		case ir.OpAlloca:
			return in
		case ir.OpCall:
			if in.Callee == "__malloc" {
				return in
			}
			return nil
		default:
			return nil
		}
	}
	return nil
}

// IsIdentifiedObject reports whether v is a distinct memory object:
// an alloca, a global, a __malloc result, or a noalias argument.
// Two different identified objects never overlap.
func IsIdentifiedObject(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Global:
		return true
	case *ir.Arg:
		return x.NoAlias
	case *ir.Instr:
		return x.Op == ir.OpAlloca || (x.Op == ir.OpCall && x.Callee == "__malloc")
	}
	return false
}

// IsLocalObject reports whether v is function-local memory (alloca or
// malloc result), as opposed to an argument or global.
func IsLocalObject(v ir.Value) bool {
	x, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	return x.Op == ir.OpAlloca || (x.Op == ir.OpCall && x.Callee == "__malloc")
}

// nonCapturingIntrinsics lists intrinsics that receive pointer arguments without
// retaining them beyond the call: passing a pointer to these does not
// make the pointee reachable through other names afterwards.
var nonCapturingIntrinsics = map[string]bool{
	"__print_str":         true,
	"__checksum_f64":      true,
	"__checksum_i64":      true,
	"__free":              true,
	"__mpi_sendrecv":      true,
	"__mpi_allreduce_f64": true,
}

// captureStackWords is the size, in 64-bit words, of the derived-pointer
// bitset IsNonCaptured keeps on the stack; a function whose NextInstrID
// exceeds 64*captureStackWords gets one on the heap.
const captureStackWords = 16

// IsNonCaptured reports whether the address of the local object obj
// never escapes its function: it is not stored as a value, not passed
// to a capturing call, and every derived pointer (via GEP/select) obeys
// the same. A non-captured local cannot be reached through arguments,
// globals, or loaded pointers.
//
// Derived pointers live in a bitset indexed by instruction ID, which
// ir.Verify keeps unique and below NextInstrID. Each sweep over the
// function both grows the set and checks capturing uses against it.
// The set only grows, so a use found capturing stays capturing; the
// last sweep adds nothing and so checks every use against the final
// set.
func IsNonCaptured(obj *ir.Instr) bool {
	fn := obj.Parent.Parent
	var small [captureStackWords]uint64
	derived := small[:]
	if n := fn.NextInstrID(); n > 64*captureStackWords {
		derived = make([]uint64, (n+63)/64)
	}
	derived[obj.ID>>6] |= 1 << (obj.ID & 63)
	// has reports whether v is a derived pointer: an instruction of fn
	// whose bit is set. An instruction of another function never is.
	has := func(v ir.Value) bool {
		in, ok := v.(*ir.Instr)
		if !ok || in.Parent == nil || in.Parent.Parent != fn {
			return false
		}
		w := in.ID >> 6
		return w < len(derived) && derived[w]&(1<<(in.ID&63)) != 0
	}
	anyDerived := func(ops []ir.Value) bool {
		for _, op := range ops {
			if has(op) {
				return true
			}
		}
		return false
	}
	for {
		grew := false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				switch in.Op {
				case ir.OpGEP, ir.OpSelect:
					if !has(in) && anyDerived(in.Operands) {
						derived[in.ID>>6] |= 1 << (in.ID & 63)
						grew = true
					}
				case ir.OpStore:
					if has(in.Operands[0]) {
						return false // address stored to memory
					}
				case ir.OpCall:
					if anyDerived(in.Operands) && capturingCall(in.Callee) {
						return false // passed to a capturing call
					}
				case ir.OpPhi, ir.OpRet:
					// A phi gives up tracking; a return escapes.
					if anyDerived(in.Operands) {
						return false
					}
				}
			}
		}
		if !grew {
			return true
		}
	}
}

// capturingCall reports whether a call to callee may retain a pointer
// argument: every call except to __memcpy and to the non-capturing and
// readnone intrinsics (any other callee reads and writes memory).
func capturingCall(callee string) bool {
	if callee == "__memcpy" || nonCapturingIntrinsics[callee] {
		return false
	}
	e := ir.CalleeEffects(callee)
	return e.Reads || e.Writes
}
