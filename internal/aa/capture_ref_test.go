package aa

import "github.com/oraql/go-oraql/internal/ir"

// isNonCapturedRef is the map-based capture check IsNonCaptured
// replaced, kept verbatim as the reference IsNonCaptured must agree
// with: a fixed point over derived pointers, then one scan for
// capturing uses.
func isNonCapturedRef(obj *ir.Instr) bool {
	fn := obj.Parent.Parent
	derived := map[ir.Value]bool{obj: true}
	// Fixed point over derived pointers; functions are small.
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Dead() {
					continue
				}
				if (in.Op == ir.OpGEP || in.Op == ir.OpSelect) && !derived[in] {
					for _, op := range in.Operands {
						if derived[op] {
							derived[in] = true
							changed = true
							break
						}
					}
				}
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			switch in.Op {
			case ir.OpStore:
				if derived[in.Operands[0]] {
					return false // address stored to memory
				}
			case ir.OpCall:
				if ir.IsIntrinsic(in.Callee) && (nonCapturingIntrinsics[in.Callee] ||
					!ir.CalleeEffects(in.Callee).Reads && !ir.CalleeEffects(in.Callee).Writes) {
					continue
				}
				if in.Callee == "__memcpy" {
					continue
				}
				for _, op := range in.Operands {
					if derived[op] {
						return false // passed to a capturing call
					}
				}
			case ir.OpPhi:
				for _, op := range in.Operands {
					if derived[op] {
						return false // flows into a phi: give up tracking
					}
				}
			case ir.OpRet:
				for _, op := range in.Operands {
					if derived[op] {
						return false
					}
				}
			}
		}
	}
	return true
}
