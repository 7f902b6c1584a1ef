package campaign

// The warehouse bindings: scripted forensics over the persistent
// corpus. They only read — probe() and fuzz() already file their
// findings automatically whenever the campaign runs with a cache —
// and every result is derived deterministically from the manifest, so
// a forensics script prints byte-identical output for any worker
// count or process split. Without a cache the bindings fail loudly:
// an empty answer would be indistinguishable from an empty corpus.

import (
	"github.com/oraql/go-oraql/internal/warehouse"
)

func warehouseBuiltins() []*Builtin {
	return []*Builtin{
		{
			Name: "warehouse_stats",
			Doc:  "warehouse_stats() — corpus totals: records by kind, apps, passes, shapes, verdicts",
			Fn:   bindWarehouseStats,
		},
		{
			Name: "warehouse_query",
			Doc:  "warehouse_query({by: pass|shape|func|grammar, kind, app, grammar}) — cross-campaign recurrences, most widespread first",
			Fn:   bindWarehouseQuery,
		},
		{
			Name: "warehouse_divergent_seeds",
			Doc:  "warehouse_divergent_seeds({grammar}) — generator seeds that historically produced divergences",
			Fn:   bindWarehouseSeeds,
		},
	}
}

// openWarehouse resolves the script's warehouse or fails the call.
func openWarehouse(in *interp, line int, what string) (*warehouse.Store, error) {
	w := warehouse.Open(in.opts.Cache)
	if w == nil {
		return nil, scriptErr(line, "%s requires a persistent store (run with -cache-dir)", what)
	}
	return w, nil
}

func bindWarehouseStats(in *interp, line int, args []any) (any, error) {
	if len(args) != 0 {
		return nil, scriptErr(line, "warehouse_stats takes no arguments")
	}
	w, err := openWarehouse(in, line, "warehouse_stats")
	if err != nil {
		return nil, err
	}
	return toScriptValue(w.Load().Stats())
}

func bindWarehouseQuery(in *interp, line int, args []any) (any, error) {
	// The keys are QueryOptions' own, as on POST /v1/warehouse.
	var q warehouse.QueryOptions
	if err := decodeOpts(line, args, "warehouse_query", &q); err != nil {
		return nil, err
	}
	w, err := openWarehouse(in, line, "warehouse_query")
	if err != nil {
		return nil, err
	}
	rows := w.Load().Query(q)
	if rows == nil {
		rows = []warehouse.Recurrence{} // empty corpus answers [], not null
	}
	return toScriptValue(rows)
}

func bindWarehouseSeeds(in *interp, line int, args []any) (any, error) {
	var o struct {
		Grammar string `json:"grammar"`
	}
	if err := decodeOpts(line, args, "warehouse_divergent_seeds", &o); err != nil {
		return nil, err
	}
	w, err := openWarehouse(in, line, "warehouse_divergent_seeds")
	if err != nil {
		return nil, err
	}
	seeds := w.Load().DivergentSeeds(o.Grammar)
	out := make([]any, len(seeds))
	for i, s := range seeds {
		out[i] = s
	}
	return out, nil
}
