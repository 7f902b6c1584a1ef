package driver

// IR feature scoring: a static per-query estimate of the probability
// that an optimistic (no-alias) answer breaks the program, computed
// from the query's own shape before any test runs. The estimate is
// the cold-start prior for the bayes strategy's ranking and the
// pseudo-count base that persisted verdict history (per-function
// verdicts, warehouse shape frequencies) updates — see persist.go.
//
// The model is a hand-weighted logistic over structural features of
// the two memory locations: the underlying objects the pointers
// derive from (distinct stack slots cannot alias; arguments can alias
// anything), the depth of the address-arithmetic chains (a[i] vs
// a[i+1] — GEPs off one base — is the canonical dangerous query),
// TBAA tags, access types, and the enclosing function's size. Scores
// are deliberately kept inside [0.05, 0.95]: features rank, they
// never pin — convictions always come from failed tests.

import (
	"math"

	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
)

// objClass is the feature-level classification of a pointer's
// underlying object, mirroring the location classes the warehouse
// shapes queries by (warehouse.locClass) but computed structurally.
type objClass int

const (
	objUnknown    objClass = iota
	objAlloca              // a stack slot local to the function
	objGlobal              // a module global
	objArg                 // a function parameter (may alias anything inbound)
	objNoAliasArg          // a parameter carrying the noalias attribute
	objCall                // a call result (fresh or escaped, can't tell)
	objMerge               // phi/select — control-dependent provenance
	objIndirect            // loaded from memory — arbitrary provenance
)

// baseObject walks GEP chains to the underlying object and reports
// the chain depth. It stops at the first non-GEP: that value is the
// provenance the aliasing verdict hinges on.
func baseObject(v ir.Value) (ir.Value, int) {
	depth := 0
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP || len(in.Operands) == 0 {
			return v, depth
		}
		v = in.Operands[0]
		depth++
	}
}

func classify(v ir.Value) objClass {
	switch b := v.(type) {
	case *ir.Global:
		return objGlobal
	case *ir.Arg:
		if b.NoAlias {
			return objNoAliasArg
		}
		return objArg
	case *ir.Instr:
		switch b.Op {
		case ir.OpAlloca:
			return objAlloca
		case ir.OpCall:
			return objCall
		case ir.OpPhi, ir.OpSelect:
			return objMerge
		case ir.OpLoad:
			return objIndirect
		}
	}
	return objUnknown
}

// pairRisk scores the object-class pair: the additive logit
// contribution of where the two pointers come from.
func pairRisk(a, b objClass, sameBase bool) float64 {
	if sameBase {
		// Same underlying object, different offsets: exactly the
		// loop-carried a[i]/a[i+1] shape the paper's guilty queries
		// take. Strongly risky.
		return 2.0
	}
	if a == objNoAliasArg || b == objNoAliasArg {
		return -2.0
	}
	// Order-normalize so (alloca, global) == (global, alloca).
	if a > b {
		a, b = b, a
	}
	switch {
	case a == objAlloca && b == objAlloca:
		return -2.0 // distinct stack slots never alias
	case a == objAlloca && b == objGlobal:
		return -1.75
	case a == objGlobal && b == objGlobal:
		return -1.5 // distinct globals
	case a == objArg && b == objArg:
		return 1.0 // two unconstrained parameters routinely alias
	case a == objAlloca && b == objArg:
		return -0.75 // an inbound pointer can't name a local slot (unless escaped)
	case a == objGlobal && b == objArg:
		return 0.5 // callers do pass globals
	default:
		// merges, loads, calls, unknowns: provenance opaque.
		return 0.75
	}
}

// featureScore is the logistic estimate for one query.
func featureScore(rec *oraql.QueryRecord, funcSize int) float64 {
	baseA, depthA := baseObject(rec.A.Ptr)
	baseB, depthB := baseObject(rec.B.Ptr)
	sameBase := baseA != nil && baseB != nil && baseA.VID() == baseB.VID()
	logit := pairRisk(classify(baseA), classify(baseB), sameBase)

	// Address-arithmetic depth: computed indices are where optimizers
	// mis-judge dependences; each GEP hop adds a little risk, capped.
	if d := depthA + depthB; d > 0 {
		if d > 4 {
			d = 4
		}
		logit += 0.15 * float64(d)
	}
	// TBAA: distinct type tags on both accesses argue against aliasing;
	// matching tags argue (weakly) for it.
	if rec.A.TBAA != "" && rec.B.TBAA != "" {
		if rec.A.TBAA != rec.B.TBAA {
			logit -= 1.0
		} else {
			logit += 0.25
		}
	}
	// Access types: loads/stores of different result types rarely
	// describe the same bytes.
	if ai, bi := rec.A.Instr, rec.B.Instr; ai != nil && bi != nil &&
		ai.Ty != nil && bi.Ty != nil && ai.Ty != bi.Ty {
		logit -= 0.5
	}
	// Function size: more instructions means more interleaved accesses
	// between the two and more transformations acting on the answer.
	if funcSize > 0 {
		s := float64(funcSize)
		if s > 512 {
			s = 512
		}
		logit += 0.25 * s / 512
	}
	p := 1 / (1 + math.Exp(-logit))
	if p < 0.05 {
		p = 0.05
	}
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// funcSizes counts live instructions per function of a module.
func funcSizes(mod *ir.Module) map[string]int {
	if mod == nil {
		return nil
	}
	sizes := make(map[string]int, len(mod.Funcs))
	for _, f := range mod.Funcs {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		sizes[f.Name] = n
	}
	return sizes
}

// seedFeaturePriors sets est[i] to the feature estimate of recs[i]
// and returns how many records were scored. mod is the baseline host
// module (function sizes); nil degrades gracefully.
func seedFeaturePriors(recs []*oraql.QueryRecord, mod *ir.Module, est []float64) int {
	sizes := funcSizes(mod)
	scored := 0
	for i, rec := range recs {
		if rec.A.Ptr == nil || rec.B.Ptr == nil {
			continue
		}
		est[i] = featureScore(rec, sizes[rec.Func])
		scored++
	}
	return scored
}
