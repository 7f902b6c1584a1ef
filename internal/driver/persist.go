package driver

import (
	"fmt"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// Campaign persistence (BenchSpec.Cache): the driver stores two
// artifact families in the shared disk cache so later processes skip
// work.
//
//   - Test outcomes, keyed by the campaign identity (baseline module
//     content hashes + check configuration) and the exact candidate
//     sequence. Reprobing an unchanged program replays every test from
//     disk without compiling or running anything.
//
//   - Per-query verdicts, keyed by the *function* content hash and a
//     stable query descriptor (pass + function + both location dumps +
//     occurrence index — deliberately not the sequence position, which
//     shifts with edits). Functions untouched by an edit keep their
//     hash, so their verdicts transfer and seed the next bisection:
//     one test of the hinted candidate (known-guilty queries
//     pessimistic, the rest optimistic) settles a small edit, and a
//     failed hint falls back to the plain chunked recursion. Verdicts
//     are hints — the final sequence is always re-verified — so a
//     stale hint costs one extra test, never soundness.

// campaignKeys derives the two persistence identities after the
// baseline compilation (which carries the content hashes).
func (st *state) campaignKeys() {
	if st.spec.Cache == nil || st.res.Baseline == nil {
		return
	}
	b := st.res.Baseline.Compile
	if b.Host.ModuleHash == "" {
		return
	}
	c := st.spec.Compile
	r := st.spec.Run
	cfg := fmt.Sprintf("opt=%d|stop=%d|chain=%s|mode=%d|target=%s|funcs=%v|files=%v|threads=%d|ranks=%d|steps=%d|mem=%d",
		c.OptLevel, c.StopAfter, c.AAChainCanonical(),
		st.spec.ORAQL.Mode, st.spec.ORAQL.Target, st.spec.ORAQL.Funcs, st.spec.ORAQL.Files,
		r.NumThreads, r.NumRanks, r.StepLimit, r.MemLimit)
	// checkID excludes the module hashes on purpose: per-function
	// verdicts must survive edits to *other* functions.
	st.checkID = diskcache.Key("check", st.spec.Name, cfg)
	dev := ""
	if b.Device != nil {
		dev = b.Device.ModuleHash
	}
	st.campID = diskcache.Key("campaign", st.checkID, b.Host.ModuleHash, dev)
}

// verdictDescriptors renders the stable per-query descriptors for a
// record stream. Identical query streams (same function content, same
// analysis answers) produce identical descriptors across processes and
// across edits to other functions; the occurrence suffix disambiguates
// repeated (pass, locations) pairs within one function.
func verdictDescriptors(recs []*oraql.QueryRecord) []string {
	occ := map[string]int{}
	out := make([]string, len(recs))
	for i, rec := range recs {
		a, b := rec.LocDescriptions()
		base := rec.Pass + "|" + rec.Func + "|" + a + "|" + b
		out[i] = fmt.Sprintf("%s#%d", base, occ[base])
		occ[base]++
	}
	return out
}

// featurePseudoCount is the strength of the IR feature estimate when
// observed verdict history updates it: the feature score enters the
// beta update as featurePseudoCount virtual observations, so a couple
// of real verdicts already dominate it.
const featurePseudoCount = 2

// clampPrior keeps per-query priors away from certainty: priors order
// and partition the bisection, they never decide it.
func clampPrior(p float64) float64 {
	if p < 0.02 {
		return 0.02
	}
	if p > 0.98 {
		return 0.98
	}
	return p
}

// seedPriors fills st.priors (per-index probability that the query
// must stay pessimistic) and st.pins (persisted known answers) from
// three evidence layers, weakest first:
//
//  1. IR feature scores (features.go) — always available once the
//     fully-optimistic compile's query stream is captured; the
//     cold-start estimate.
//  2. Warehouse per-shape verdict frequencies — fleet-wide history,
//     cross-program; blended over the feature base when no
//     per-function history matched. Priors only, never pins.
//  3. Per-function persisted verdicts — same program, same check;
//     beta-updates the feature base and pins the known answers.
func (st *state) seedPriors() {
	recs := st.eng.takeOptRecords()
	if len(recs) == 0 {
		return
	}
	priors := make([]float64, len(recs))
	for i := range priors {
		priors[i] = 0.5
	}
	var mod *ir.Module
	if st.res.Baseline != nil && st.res.Baseline.Compile != nil && st.res.Baseline.Compile.Host != nil {
		mod = st.res.Baseline.Compile.Host.Module
	}
	if scored := seedFeaturePriors(recs, mod, priors); scored > 0 {
		st.priors = priors
		st.logf("%s: scored %d/%d queries from IR features", st.spec.Name, scored, len(recs))
	}
	if st.spec.Cache == nil || st.checkID == "" {
		return
	}
	descs := verdictDescriptors(recs)
	byHash := map[string]diskcache.FuncVerdicts{}
	pins := make([]int8, len(recs))
	pinned := 0
	hashes := st.res.Baseline.Compile.ContentFuncHashes()
	for i, rec := range recs {
		if rec.Index < 0 || rec.Index >= len(pins) {
			continue
		}
		fh := hashes[rec.Func]
		if fh == "" {
			continue
		}
		fv, ok := byHash[fh]
		if !ok {
			fv = st.spec.Cache.LoadFuncVerdicts(fh, st.checkID)
			byHash[fh] = fv
		}
		c := fv[descs[i]]
		total := c.Optimistic + c.Pessimistic
		if total == 0 {
			continue
		}
		// Beta update: feature estimate as pseudo-counts, observed
		// verdicts on top.
		priors[rec.Index] = clampPrior(
			(priors[rec.Index]*featurePseudoCount + float64(c.Pessimistic)) /
				(featurePseudoCount + float64(total)))
		// Ever convicted -> pin pessimistic (conservative); otherwise
		// always survived -> pin optimistic.
		if c.Pessimistic > 0 {
			pins[rec.Index] = -1
		} else {
			pins[rec.Index] = 1
		}
		pinned++
	}
	if pinned > 0 {
		st.pins, st.priors = pins, priors
		st.logf("%s: seeded %d/%d query verdicts from persisted campaign state", st.spec.Name, pinned, len(recs))
		return
	}
	// No per-function history (first campaign on this program, or every
	// function edited): fall back to the warehouse's fleet-wide verdict
	// frequencies per query shape. Priors only — never pins.
	if seeded := st.seedShapePriors(recs, priors); seeded > 0 {
		st.priors = priors
		st.logf("%s: seeded %d/%d query priors from warehouse shape history", st.spec.Name, seeded, len(recs))
	}
}

// persistVerdicts records the final verified compilation's per-query
// verdicts under the owning functions' content hashes.
func (st *state) persistVerdicts(fin *pipeline.CompileResult) {
	if st.spec.Cache == nil || st.checkID == "" || st.res.Baseline == nil {
		return
	}
	hashes := st.res.Baseline.Compile.ContentFuncHashes()
	if len(hashes) == 0 {
		return
	}
	recs := fin.Records()
	descs := verdictDescriptors(recs)
	byFunc := map[string]map[string]bool{}
	for i, rec := range recs {
		fh := hashes[rec.Func]
		if fh == "" {
			continue
		}
		m := byFunc[fh]
		if m == nil {
			m = map[string]bool{}
			byFunc[fh] = m
		}
		m[descs[i]] = rec.Optimistic
	}
	for fh, obs := range byFunc {
		st.spec.Cache.MergeFuncVerdicts(fh, st.checkID, obs)
	}
}

// PFail estimates the probability that flipping [lo, hi) optimistic
// fails verification, from the per-index priors (0.5 when unknown).
// Part of the Prober interface consumed by speculation-ordering
// strategies.
func (st *state) PFail(lo, hi int) float64 {
	allOK := 1.0
	for i := lo; i < hi; i++ {
		p := 0.5
		if i < len(st.priors) {
			p = st.priors[i]
		}
		allOK *= 1 - p
	}
	return 1 - allOK
}

// seededSolve is the chunked recursion with persisted verdicts as a
// hint: the hinted candidate (known-guilty queries pessimistic, every
// other position optimistic) is tested first — the common case for a
// small edit, resolving the whole round in one test. The pins are
// mapped onto the fully optimistic compile's query stream, whose
// indices shift after the first pessimistic answer, so a failed hint
// says nothing reliable about any single position: the round then
// bisects all n positions with the plain chunked recursion.
func (st *state) seededSolve(n int) (oraql.Seq, error) {
	cand := make(oraql.Seq, n)
	for i := range cand {
		cand[i] = i >= len(st.pins) || st.pins[i] >= 0
	}
	ok, err := st.test(st.pad(cand, st.padLen))
	if err != nil {
		return nil, err
	}
	if ok {
		return cand, nil
	}
	st.logf("%s: hinted candidate failed; bisecting all %d queries", st.spec.Name, n)
	return Chunked.Solve(st, n)
}
