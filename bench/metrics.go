package main

import "fmt"

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports for every workload.
// An "op" is one probe campaign on the probe-* workloads and one HTTP
// request on serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_geomean", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// passMetrics maps the -time-passes row names of the O3 pipeline to
// their per-layer metric names.
var passMetrics = []struct{ pass, metric string }{
	{"instsimplify", "passes.inst_simplify_ms"},
	{"simplifycfg", "passes.simplify_cfg_ms"},
	{"Early CSE", "passes.early_cse_ms"},
	{"Global Value Numbering", "passes.gvn_ms"},
	{"MemCpy Optimization", "passes.memcpy_opt_ms"},
	{"Dead Store Elimination", "passes.dse_ms"},
	{"Loop Invariant Code Motion", "passes.licm_ms"},
	{"Loop Load Elimination", "passes.loop_load_elim_ms"},
	{"Loop Vectorizer", "passes.loop_vectorize_ms"},
	{"SLP Vectorizer", "passes.slp_vectorize_ms"},
	{"Loop Rotation", "passes.loop_rotate_ms"},
	{"Loop Deletion", "passes.loop_deletion_ms"},
	{"Machine Code Sinking", "passes.sink_ms"},
	{"ADCE", "passes.adce_ms"},
}

// perLayer are the metrics a traced run reports for every workload. A
// layer the workload does not exercise, or cannot observe from outside
// the program, reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"driver.compiles_per_campaign", "count"},
		{"driver.tests_per_campaign", "count"},
		{"driver.exe_cache_hit_ratio", "ratio"},
		{"driver.test_ms_p50", "ms"},
		{"driver.test_ms_p90", "ms"},
		{"driver.spec_per_campaign", "count"},
		{"driver.spec_useful_ratio", "ratio"},
		{"driver.tests_disk_ratio", "ratio"},
		{"driver.runs_replayed_per_campaign", "count"},
		{"driver.unattributed_frac", "ratio"},
		{"driver.replay_coverage", "ratio"},
		{"minic.frontend_ms", "ms"},
		{"minic.alloc_mb", "MB"},
		{"aa.chain_build_ms", "ms"},
		{"aa.queries_per_compile", "count"},
		{"aa.query_cache_hit_ratio", "ratio"},
		{"oraql.unique_queries_per_compile", "count"},
		{"passes.total_ms", "ms"},
	}
	for _, p := range passMetrics {
		defs = append(defs, metricDef{p.metric, "ms"})
	}
	return append(defs,
		metricDef{"analysis.hit_ratio", "ratio"},
		metricDef{"codegen.ms", "ms"},
		metricDef{"pipeline.compile_ms_p50", "ms"},
		metricDef{"pipeline.compile_ms_p90", "ms"},
		metricDef{"pipeline.self_ms", "ms"},
		metricDef{"pipeline.alloc_mb_per_compile", "MB"},
		metricDef{"pipeline.disk_hits_per_compile", "count"},
		metricDef{"irinterp.run_ms_p50", "ms"},
		metricDef{"irinterp.run_ms_p90", "ms"},
		metricDef{"irinterp.minstr_per_s", "Minstr/s"},
		metricDef{"irinterp.alloc_mb_per_run", "MB"},
		metricDef{"verify.check_ms", "ms"},
		metricDef{"diskcache.hit_ratio", "ratio"},
		metricDef{"diskcache.puts_per_campaign", "count"},
		metricDef{"diskcache.usage_mb", "MB"},
		metricDef{"service.cached_ms_p50", "ms"},
		metricDef{"service.cached_ms_p99", "ms"},
		metricDef{"service.compile_ms_p50", "ms"},
		metricDef{"service.compile_ms_p99", "ms"},
		metricDef{"service.lru_hit_ratio", "ratio"},
		metricDef{"service.disk_hit_ratio", "ratio"},
		metricDef{"service.compiles_per_request", "count"},
		metricDef{"service.server_ms_p50", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one input's line in a result: a probe configuration (or its
// edited variant) or a serve-mix request class.
type row struct {
	Input       string  `json:"input"`
	Ops         int     `json:"ops"`
	MedianMS    float64 `json:"median_ms"`
	Compiles    int     `json:"compiles,omitempty"`
	Convictions int     `json:"convictions"`
}

// result is the record of one workload run.
type result struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Reps       int               `json:"reps"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Wrong      int               `json:"wrong_results"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// HostRefMS is the median host reference shot of the run, and
	// RawMetrics the timing metrics as measured, before scaling to
	// refNominalMS.
	HostRefMS  float64           `json:"host_ref_ms"`
	RawMetrics map[string]metric `json:"raw_metrics,omitempty"`
	Rows       []row             `json:"rows,omitempty"`

	meter hostMeter
}

// set records a metric of defs with the unit its definition gives.
func (r *result) set(defs []metricDef, name string, v float64) { setMetric(r.Metrics, defs, name, v) }

// setMetric records a metric of defs into a metric map.
func setMetric(into map[string]metric, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			into[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undefined metric " + name)
}

// wrong books one output that differs from the expected one.
func (r *result) wrong(format string, args ...any) {
	r.Wrong++
	r.problem(format, args...)
}

// fail books one operation that returned an error.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem keeps the first few problem descriptions.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fill reports every metric of defs the run did not set as 0.
func (r *result) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
}
