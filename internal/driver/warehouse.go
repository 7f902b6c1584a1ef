package driver

import (
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// Warehouse integration: every campaign that runs with persistent
// state (BenchSpec.Cache) also files its outcome in the forensics
// warehouse.

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
