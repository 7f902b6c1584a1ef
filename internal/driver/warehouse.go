package driver

import (
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// Warehouse integration: every campaign that runs with persistent
// state (BenchSpec.Cache) also files its outcome in the forensics
// warehouse, and campaigns with no per-function history fall back to
// the fleet-wide per-shape verdict frequencies accumulated there.

// ingestWarehouse files the finished probe as a warehouse record;
// descs renders the final compile's records. The record is pure
// campaign output — content addressing makes repeat runs of the same
// campaign land on the same ID, so re-probing never duplicates corpus
// entries.
func (st *state) ingestWarehouse(recs []*oraql.QueryRecord, descs []queryDesc) {
	w := warehouse.Open(st.spec.Cache)
	if w == nil || st.res.Final == nil {
		return
	}
	strat := st.spec.Strategy
	if strat == nil {
		strat = Chunked
	}
	rec := &warehouse.Record{
		Kind:            warehouse.KindProbe,
		App:             st.spec.Name,
		AAChain:         st.spec.Compile.AAChainCanonical(),
		Strategy:        strat.Name(),
		FinalSeq:        st.res.FinalSeq.String(),
		FullyOptimistic: st.res.FullyOptimistic,
		ExeHash:         st.res.Final.Compile.ExeHash(),
		FuncHashes:      st.res.Baseline.Compile.ContentFuncHashes(),
	}
	for i, r := range recs {
		rec.Queries = append(rec.Queries, warehouse.QueryVerdict{
			Index: r.Index, Pass: r.Pass, Func: r.Func,
			A: descs[i].a, B: descs[i].b, Optimistic: r.Optimistic,
		})
	}
	id, added, err := w.Ingest(rec)
	if err != nil {
		st.logf("%s: warehouse ingest failed: %v", st.spec.Name, err)
		return
	}
	if added {
		st.logf("%s: warehouse record %s filed", st.spec.Name, id[:12])
	}
}

// shapeMaxWeight caps the evidence weight of fleet-wide shape
// statistics in the beta update: shapes generalize across programs,
// so however many observations a shape has accumulated elsewhere, it
// never swamps the per-query feature estimate the way same-program
// verdict history may.
const shapeMaxWeight = 16

// seedShapePriors is the fleet-wide fallback for seedPriors: when no
// per-function verdict history matches (first campaign on a program,
// or every function was edited), update each record's conviction
// estimate est[i] from the warehouse's per-shape verdict frequencies
// instead; descs renders recs. The shape frequency beta-updates the IR
// feature estimate (weight-capped), so a fresh campaign still orders
// its speculation by what convicted elsewhere. Only priors are seeded
// — never hints: shape statistics are suggestive, not per-query
// evidence.
func (st *state) seedShapePriors(recs []*oraql.QueryRecord, descs []queryDesc, est []float64) int {
	w := warehouse.Open(st.spec.Cache)
	if w == nil {
		return 0
	}
	hist := w.Load().ShapePriors()
	if hist == nil {
		return 0
	}
	seeded := 0
	for i, rec := range recs {
		shape := warehouse.QueryVerdict{Pass: rec.Pass, A: descs[i].a, B: descs[i].b}.Shape()
		c, ok := hist[shape]
		if !ok {
			continue
		}
		total := c.Optimistic + c.Pessimistic
		if total == 0 {
			continue
		}
		weight := float64(total)
		if weight > shapeMaxWeight {
			weight = shapeMaxWeight
		}
		freq := float64(c.Pessimistic) / float64(total)
		est[i] = clampPrior((est[i]*featurePseudoCount + freq*weight) /
			(featurePseudoCount + weight))
		seeded++
	}
	return seeded
}
