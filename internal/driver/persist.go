package driver

import (
	"fmt"
	"slices"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
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
//     hash, so their verdicts transfer to the next campaign. The
//     convictions among them that the new query stream still asks are
//     the hint: a set of descriptors, not of positions. seededSolve
//     places it on a compile's own query records and tests the
//     candidate that placement gives, which settles a small edit in
//     one test. A candidate that fails is compiled live and the hint
//     placed again on its records, because the first pessimistic
//     answer shifts every later position. Verdicts are hints — the
//     final sequence is always re-verified — so a stale hint costs a
//     few compiles and at most two tests more than an uncached
//     campaign, never soundness.

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

// queryDesc is one query record rendered: both location dumps and
// the stable verdict descriptor built from them.
type queryDesc struct {
	a, b string // rec.LocDescriptions()
	key  string // pass|func|a|b#occurrence
}

// describeQueries renders a record stream's locations and stable
// per-query descriptors. Identical query streams (same function
// content, same analysis answers) produce identical descriptors across
// processes and across edits to other functions; the occurrence suffix
// disambiguates repeated (pass, locations) pairs within one function.
func describeQueries(recs []*oraql.QueryRecord) []queryDesc {
	occ := map[string]int{}
	out := make([]queryDesc, len(recs))
	for i, rec := range recs {
		a, b := rec.LocDescriptions()
		base := rec.Pass + "|" + rec.Func + "|" + a + "|" + b
		out[i] = queryDesc{a: a, b: b, key: fmt.Sprintf("%s#%d", base, occ[base])}
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

// positionPriors folds per-record estimates (est[i] belongs to
// recs[i]) into per-position priors over [0, len(recs)). The host and
// device compiles read one sequence, so a position must stay
// pessimistic when any of its records must: 1 − Π(1 − p_r), clamped.
// A position with one record keeps that record's estimate exactly; one
// with none is unknown (0.5).
func positionPriors(recs []*oraql.QueryRecord, est []float64) []float64 {
	priors := make([]float64, len(recs))
	seen := make([]bool, len(recs))
	for i, rec := range recs {
		j := rec.Index
		if seen[j] {
			priors[j] = 1 - (1-priors[j])*(1-est[i])
		} else {
			priors[j], seen[j] = est[i], true
		}
	}
	for j := range priors {
		if seen[j] {
			priors[j] = clampPrior(priors[j])
		} else {
			priors[j] = 0.5
		}
	}
	return priors
}

// seedPriors fills st.priors (per-position probability that the query
// must stay pessimistic) and the hint (persisted convictions) from the
// fully optimistic compile's query stream and three evidence layers,
// weakest first:
//
//  1. IR feature scores (features.go) — always available once the
//     fully-optimistic compile's query stream is captured; the
//     cold-start estimate.
//  2. Warehouse per-shape verdict frequencies — fleet-wide history,
//     cross-program; blended over the feature base when no
//     per-function history matched. Priors only, never hints.
//  3. Per-function persisted verdicts — same program, same check;
//     beta-updates the feature base, and every descriptor ever
//     convicted joins the hint.
//
// Each layer updates one estimate per record; positionPriors combines
// them per position.
func (st *state) seedPriors() {
	recs := st.eng.takeOptRecords()
	if len(recs) == 0 {
		return
	}
	est := make([]float64, len(recs))
	for i := range est {
		est[i] = 0.5
	}
	var mod *ir.Module
	if st.res.Baseline != nil && st.res.Baseline.Compile != nil && st.res.Baseline.Compile.Host != nil {
		mod = st.res.Baseline.Compile.Host.Module
	}
	if scored := seedFeaturePriors(recs, mod, est); scored > 0 {
		st.priors = positionPriors(recs, est)
		st.logf("%s: scored %d/%d queries from IR features", st.spec.Name, scored, len(recs))
	}
	if st.spec.Cache == nil || st.checkID == "" {
		return
	}
	descs := describeQueries(recs)
	byHash := map[string]diskcache.FuncVerdicts{}
	hint := map[string]bool{}
	var hintAt []int
	matched := 0
	hashes := st.res.Baseline.Compile.ContentFuncHashes()
	for i, rec := range recs {
		fh := hashes[rec.Func]
		if fh == "" {
			continue
		}
		fv, ok := byHash[fh]
		if !ok {
			fv = st.spec.Cache.LoadFuncVerdicts(fh, st.checkID)
			byHash[fh] = fv
		}
		c := fv[descs[i].key]
		total := c.Optimistic + c.Pessimistic
		if total == 0 {
			continue
		}
		// Beta update: feature estimate as pseudo-counts, observed
		// verdicts on top.
		est[i] = clampPrior((est[i]*featurePseudoCount + float64(c.Pessimistic)) /
			(featurePseudoCount + float64(total)))
		// Ever convicted -> hinted pessimistic (conservative).
		if c.Pessimistic > 0 {
			hint[descs[i].key] = true
			hintAt = append(hintAt, rec.Index)
		}
		matched++
	}
	if matched > 0 {
		st.priors = positionPriors(recs, est)
		if len(hint) > 0 {
			st.hint, st.hintAt = hint, hintAt
		}
		st.logf("%s: seeded %d/%d query verdicts (%d convictions) from persisted campaign state",
			st.spec.Name, matched, len(recs), len(hint))
		return
	}
	// No per-function history (first campaign on this program, or every
	// function edited): fall back to the warehouse's fleet-wide verdict
	// frequencies per query shape. Priors only — never hints.
	if seeded := st.seedShapePriors(recs, descs, est); seeded > 0 {
		st.priors = positionPriors(recs, est)
		st.logf("%s: seeded %d/%d query priors from warehouse shape history", st.spec.Name, seeded, len(recs))
	}
}

// persistVerdicts records the final verified compilation's per-query
// verdicts under the owning functions' content hashes; descs renders
// recs, the final compile's records.
func (st *state) persistVerdicts(recs []*oraql.QueryRecord, descs []queryDesc) {
	if st.spec.Cache == nil || st.checkID == "" || st.res.Baseline == nil {
		return
	}
	hashes := st.res.Baseline.Compile.ContentFuncHashes()
	if len(hashes) == 0 {
		return
	}
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
		m[descs[i].key] = rec.Optimistic
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

// hintedCandidate answers the positions at pessimistically and every
// other position of [0, n) optimistically.
func hintedCandidate(n int, at []int) oraql.Seq {
	cand := make(oraql.Seq, n)
	for i := range cand {
		cand[i] = true
	}
	for _, i := range at {
		if i < n {
			cand[i] = false
		}
	}
	return cand
}

// placeHint compiles cand live, so every step runs and the records are
// exact, and places hint on that compile's query stream. Nothing runs.
// The descriptors render the IR after the pipeline, as the persisted
// ones did; a query-time rendering would see operands that later
// passes rename.
func (st *state) placeHint(cand oraql.Seq, hint map[string]bool) (oraql.Seq, error) {
	opts := st.spec.ORAQL
	opts.Seq = st.pad(cand, st.padLen)
	cr, err := st.sess.CompileLive(st.ctx, &opts)
	if err != nil {
		return nil, err
	}
	st.res.Compiles++
	recs := cr.Records()
	var at []int
	for i, d := range describeQueries(recs) {
		if hint[d.key] {
			at = append(at, recs[i].Index)
		}
	}
	return hintedCandidate(len(cand), at), nil
}

// seededSolve is the chunked recursion with persisted convictions as a
// hint. The first candidate answers the hinted descriptors
// pessimistically where the fully optimistic compile asked them, and
// every other position optimistically; for a small edit its one test
// settles the round. That stream shifts after its first pessimistic
// answer, so a failed candidate is compiled live and the hint placed
// again on its own records, until the candidate reproduces itself or
// there have been one more placements than convictions. A candidate
// that moved is tested once; only when that fails too does the round
// bisect all n positions with the plain chunked recursion.
func (st *state) seededSolve(n int) (oraql.Seq, error) {
	hint, first := st.hint, hintedCandidate(n, st.hintAt)
	st.hint, st.hintAt = nil, nil
	ok, err := st.test(st.pad(first, st.padLen))
	if err != nil {
		return nil, err
	}
	if ok {
		return first, nil
	}
	cand := first
	for range len(hint) + 1 {
		next, err := st.placeHint(cand, hint)
		if err != nil {
			return nil, err
		}
		if slices.Equal(next, cand) {
			break
		}
		cand = next
	}
	if !slices.Equal(cand, first) {
		st.logf("%s: hinted candidate moved with the query stream; testing it", st.spec.Name)
		ok, err := st.test(st.pad(cand, st.padLen))
		if err != nil {
			return nil, err
		}
		if ok {
			return cand, nil
		}
	}
	st.logf("%s: hinted candidate failed; bisecting all %d queries", st.spec.Name, n)
	return Chunked.Solve(st, n)
}
