package driver

import (
	"encoding/json"
	"fmt"
	"slices"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// Campaign persistence (BenchSpec.Cache): the driver keeps two kinds
// of grow-only set in the shared disk cache so later processes skip
// work.
//
//   - The campaign set, keyed by the campaign identity (baseline module
//     content hashes + check configuration: pipeline, ORAQL scope, run
//     options and verify settings). The union of its members maps the
//     hash of each candidate a campaign consumed to its test verdict,
//     and the executable hash of each baseline and final build to its
//     run (runcache.go). probe reads it once, right after the baseline
//     compile yields the identity; the engine and run answer from it
//     in memory; and when probe returns it adds one member that holds
//     what the campaign learned and the union lacked, or nothing. The
//     builds themselves are not here: the baseline and the final are
//     TU artifacts (pipeline), since a build depends only on the
//     source, the compile config and the ORAQL options, not on the run
//     and verify options in the campaign identity. So an unchanged
//     reprobe, whose baseline and final come from their TU artifacts,
//     compiles nothing, runs nothing and writes nothing.
//
//   - Per-query verdicts, keyed by the *function* content hash: a set
//     of stable query descriptors (pass + function + both location
//     dumps + occurrence index — deliberately not the sequence
//     position, which shifts with edits), each marked with whether any
//     campaign convicted it. The set only grows, and a merge that adds
//     nothing publishes nothing, so an unchanged reprobe writes no
//     verdict. Functions untouched by an edit keep their hash, so
//     their verdicts transfer to the next campaign. The convictions
//     among them that the new query stream still asks are the hint: a
//     set of descriptors, not of positions. seededSolve
//     places it on a compile's own query records and tests the
//     candidate that placement gives, which settles a small edit in
//     one test. A candidate that fails is compiled live and the hint
//     placed again on its records, because the first pessimistic
//     answer shifts every later position. Verdicts are hints — the
//     final sequence is always re-verified — so a stale hint costs a
//     few compiles and at most two tests more than an uncached
//     campaign, never soundness.
//
// A campaign killed before probe returns adds nothing to its campaign
// set, which costs later campaigns misses, never a wrong answer.

// campaignSet is what one campaign adds to the set keyed by campID,
// and also the union of the set's members. Members this driver writes
// never disagree: a verdict and a run are pure functions of their
// keys. A member written before final builds became TU artifacts may
// also hold a "finals" map, which decoding ignores.
type campaignSet struct {
	// Tests maps a candidate's hash (candidateHash) to its verdict.
	Tests map[string]testVerdict `json:"tests,omitempty"`
	// Runs maps an executable hash to the run of the baseline or final
	// build with that hash.
	Runs map[string]*irinterp.Result `json:"runs,omitempty"`
}

// testVerdict is one candidate's persisted check result.
type testVerdict struct {
	OK     bool `json:"ok"`
	Unique int  `json:"unique"` // unique ORAQL queries the compile asked
}

// maxUnique bounds the query count a persisted verdict may claim. The
// driver sizes every candidate by it, so a verdict that claims more
// (the largest config asks 184) is skipped, not trusted with memory.
const maxUnique = 1 << 16

// candidateHash names a candidate sequence in the campaign set.
func candidateHash(seq oraql.Seq) string { return diskcache.HashText(seq.String()) }

// openCampaign derives the two persistence identities from the baseline
// compile, which carries the content hashes, and loads the campaign
// set. It runs before the baseline run, so the verify references are
// still the caller's, before an empty list takes the baseline output.
func (st *state) openCampaign(b *pipeline.CompileResult) {
	if st.spec.Cache == nil || b.Host.ModuleHash == "" {
		return
	}
	c := st.spec.Compile
	r := st.spec.Run
	cfg := fmt.Sprintf("opt=%d|stop=%d|chain=%s|mode=%d|target=%s|funcs=%v|files=%v|threads=%d|ranks=%d|steps=%d|mem=%d",
		c.OptLevel, c.StopAfter, c.AAChainCanonical(),
		st.spec.ORAQL.Mode, st.spec.ORAQL.Target, st.spec.ORAQL.Funcs, st.spec.ORAQL.Files,
		r.NumThreads, r.NumRanks, r.StepLimit, r.MemLimit)
	// checkID excludes the module hashes on purpose: per-function
	// verdicts must survive edits to *other* functions. It includes the
	// verify settings, because a verdict holds only for its check.
	st.checkID = diskcache.Key("check", st.spec.Name, cfg,
		fmt.Sprintf("masks=%q|refs=%q", st.spec.Verify.MaskPatterns, st.spec.Verify.References))
	dev := ""
	if b.Device != nil {
		dev = b.Device.ModuleHash
	}
	st.campID = diskcache.Key("campaign", st.checkID, b.Host.ModuleHash, dev)
	st.camp = loadCampaignSet(st.spec.Cache.SetMembers(st.campID))
	st.eng.camp = st.camp
	st.learned = campaignSet{Tests: map[string]testVerdict{}, Runs: map[string]*irinterp.Result{}}
}

// loadCampaignSet returns the union of a campaign set's members. A
// member that does not decode is skipped, and so are a verdict that
// claims a negative count or more than maxUnique queries and a run
// that decodes as null.
func loadCampaignSet(members map[string][]byte) *campaignSet {
	u := &campaignSet{Tests: map[string]testVerdict{}, Runs: map[string]*irinterp.Result{}}
	for _, data := range members {
		var m campaignSet
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		for h, v := range m.Tests {
			if v.Unique >= 0 && v.Unique <= maxUnique {
				u.Tests[h] = v
			}
		}
		for h, r := range m.Runs {
			if r != nil {
				u.Runs[h] = r
			}
		}
	}
	return u
}

// publishCampaign adds what the campaign learned that its campaign set
// lacked as one member, and nothing when it learned nothing. A failed
// add costs later campaigns misses, never a wrong answer.
func (st *state) publishCampaign() {
	l := &st.learned
	if st.camp != nil && len(l.Tests)+len(l.Runs) > 0 {
		_ = st.spec.Cache.AddJSON(st.campID, l)
	}
}

// queryDesc is one query record rendered: both location dumps and
// the stable verdict descriptor built from them.
type queryDesc struct {
	a, b string // rec.LocDescriptions()
	key  string // pass|func|a|b#occurrence
}

// describeQueries renders a record stream's locations, each distinct
// one once (oraql.Render), and stable per-query descriptors. Identical
// query streams (same function
// content, same analysis answers) produce identical descriptors across
// processes and across edits to other functions; the occurrence suffix
// disambiguates repeated (pass, locations) pairs within one function.
func describeQueries(recs []*oraql.QueryRecord) []queryDesc {
	rr := oraql.Render(recs)
	occ := map[string]int{}
	out := make([]queryDesc, len(recs))
	for i, rec := range rr.Records {
		a, b := rr.Locs[rec.A].Desc, rr.Locs[rec.B].Desc
		base := rec.Pass + "|" + rec.Func + "|" + a + "|" + b
		out[i] = queryDesc{a: a, b: b, key: fmt.Sprintf("%s#%d", base, occ[base])}
		occ[base]++
	}
	return out
}

// loadHint sets a persistent campaign's hint from opt, the fully
// optimistic test's build, nil when that test compiled nothing or
// replayed a step: every descriptor the persisted per-function verdicts
// ever convicted under this check joins it, at the position opt's
// query stream asked it.
func (st *state) loadHint(opt *pipeline.CompileResult) {
	if st.camp == nil || opt == nil {
		return
	}
	recs := opt.Records()
	if len(recs) == 0 {
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
		convicted, seen := fv[descs[i].key]
		if !seen {
			continue
		}
		// Ever convicted -> hinted pessimistic (conservative).
		if convicted {
			hint[descs[i].key] = true
			hintAt = append(hintAt, rec.Index)
		}
		matched++
	}
	if matched == 0 {
		return
	}
	if len(hint) > 0 {
		st.hint, st.hintAt = hint, hintAt
	}
	st.logf("%s: seeded %d/%d query verdicts (%d convictions) from persisted campaign state",
		st.spec.Name, matched, len(recs), len(hint))
}

// persistVerdicts adds the final verified compilation's per-query
// verdicts to the sets of the owning functions' content hashes; descs
// renders recs, the final compile's records. A function whose set
// already holds every descriptor, with every conviction, gets no new
// member.
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
	st.count(cr)
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
