// Package service is the oraql-serve subsystem: an HTTP/JSON service
// (stdlib only) exposing the repo's three core workloads — one-shot
// compilation, ORAQL probe campaigns, and differential-fuzzing
// campaigns — backed by a bounded job queue with a reusable worker
// pool, a cross-request compile-result cache keyed by (module-hash,
// config-hash), per-request deadlines and cancellation threaded down
// into the pipeline, Prometheus-text metrics, and graceful shutdown
// that drains the queue and cancels in-flight jobs.
//
// Synchronous endpoint:
//
//	POST /v1/compile       program + options -> stats, timing, IR
//
// Asynchronous job endpoints (POST returns a job id):
//
//	POST /v1/probe         program + probe options -> probe job
//	POST /v1/fuzz          campaign options -> fuzz job
//	POST /v1/campaign      .oraql script body -> scripted campaign job
//	GET  /v1/jobs/{id}          poll status/result
//	GET  /v1/jobs/{id}/events   stream progress lines
//	DELETE /v1/jobs/{id}        cancel
//
// Campaign scripts run sandboxed: the interpreter has no filesystem
// or exec bindings at all, and the server enforces an instruction
// budget and a wall-clock limit on every script. The script's sha256
// is recorded in the job and exported in /metrics.
//
// Forensics warehouse (synchronous, over the shared -cache-dir):
//
//	GET  /v1/warehouse     corpus stats
//	POST /v1/warehouse     {op: stats|query|export, ...} -> result
//
// Observability:
//
//	GET /v1/registry       registered strategies/chains/configs/grammars
//	GET /metrics           Prometheus text format
//	GET /healthz           liveness + queue headroom
package service

import (
	"encoding/json"
	"time"
)

// ProgramSpec selects the program of a compile or probe request:
// either an inline minic source or the id of a registered benchmark
// configuration (`oraql list`).
type ProgramSpec struct {
	// ConfigID names a registered benchmark configuration; when set,
	// every other field is ignored.
	ConfigID string `json:"config_id,omitempty"`

	// Source is inline minic source text.
	Source     string `json:"source,omitempty"`
	SourceFile string `json:"source_file,omitempty"`
	// Model is the parallel model: seq (default), openmp, tasks, mpi,
	// offload.
	Model string `json:"model,omitempty"`
	// Fortran selects the Fortran dialect (descriptor arrays, no TBAA).
	Fortran bool `json:"fortran,omitempty"`
	// Views lowers arrays as Kokkos/Thrust-style boxed heap views.
	Views bool `json:"views,omitempty"`
	// Ranks is the simulated MPI rank count for runs (default 1).
	Ranks int `json:"ranks,omitempty"`
}

// CompileOptions tunes one /v1/compile compilation.
type CompileOptions struct {
	// OptLevel: 0 = default (-O3), 1 = -O1, -1 = frontend output only.
	OptLevel int `json:"opt_level,omitempty"`
	// FullAAChain additionally enables the CFL points-to analyses.
	FullAAChain bool `json:"full_aa_chain,omitempty"`
	// AAChain selects the alias-analysis chain by registered name
	// ("default", "full") or as a comma-separated analysis list; takes
	// precedence over FullAAChain. GET /v1/registry lists the names.
	AAChain string `json:"aa_chain,omitempty"`
	// DisableAnalysisCache is the analysis-cache ablation knob
	// (pipeline.Config.DisableAnalysisCache).
	DisableAnalysisCache bool `json:"disable_analysis_cache,omitempty"`
	// ORAQL enables the ORAQL responder; Seq is the response sequence
	// in -opt-aa-seq syntax ("1 0 1 ..."), Target the module filter.
	ORAQL  bool   `json:"oraql,omitempty"`
	Seq    string `json:"seq,omitempty"`
	Target string `json:"target,omitempty"`
	// WithIR embeds the optimized textual IR in the response.
	WithIR bool `json:"with_ir,omitempty"`
}

// CompileRequest is the /v1/compile body.
type CompileRequest struct {
	Program ProgramSpec    `json:"program"`
	Options CompileOptions `json:"options"`
}

// CompileResponse is the /v1/compile reply.
type CompileResponse struct {
	// Cached reports whether the reply was served from the
	// cross-request result cache.
	Cached bool `json:"cached"`
	// ModuleHash/ConfigHash form the result-cache key.
	ModuleHash string `json:"module_hash"`
	ConfigHash string `json:"config_hash"`
	// CompileMS is the wall time of the compilation that produced the
	// entry (not of this request when Cached).
	CompileMS float64 `json:"compile_ms"`
	// Result carries the stats/timing/IR encoding from internal/report.
	Result json.RawMessage `json:"result"`
}

// BatchCompileRequest is the /v1/compile/batch body: a list of compile
// requests resolved in one round trip. Items sharing a content hash
// are deduplicated server-side and compiled once.
type BatchCompileRequest struct {
	Items []CompileRequest `json:"items"`
}

// BatchCompileItem is one per-item outcome, in request order. Exactly
// one of Response and Error is set; Code carries the HTTP status the
// item would have received from /v1/compile.
type BatchCompileItem struct {
	Response *CompileResponse `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
	Code     int              `json:"code,omitempty"`
}

// BatchCompileResponse is the /v1/compile/batch reply.
type BatchCompileResponse struct {
	Items []BatchCompileItem `json:"items"`
	// Unique counts the distinct content keys in the batch — the
	// compilations the batch could cost at most, before the caches.
	Unique int `json:"unique"`
}

// ProbeRequest is the /v1/probe body; the reply is a JobInfo.
type ProbeRequest struct {
	Program ProgramSpec `json:"program"`
	// Strategy is the bisection strategy by registered name: chunked
	// (default), freq, or linear. GET /v1/registry lists the names.
	Strategy string `json:"strategy,omitempty"`
	// AAChain selects the alias-analysis chain for every probe
	// compilation (registered name or comma-separated analysis list).
	AAChain string `json:"aa_chain,omitempty"`
	// Workers bounds the speculative probing pool (0 = NumCPU).
	Workers int `json:"workers,omitempty"`
	// MaxTests bounds probing effort (0 = no bound).
	MaxTests int `json:"max_tests,omitempty"`
	// Target restricts ORAQL to matching modules (-opt-aa-target).
	Target string `json:"target,omitempty"`
	// DisableExeCache turns off the executable-hash test cache.
	DisableExeCache bool `json:"disable_exe_cache,omitempty"`
}

// FuzzRequest is the /v1/fuzz body; the reply is a JobInfo.
type FuzzRequest struct {
	// N is the number of generated programs (default 100).
	N int `json:"n,omitempty"`
	// Seed is the first generator seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the campaign pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Stmts is the statements-per-program knob (0 = generator default).
	Stmts int `json:"stmts,omitempty"`
	// Grammar selects a registered program-generator grammar profile
	// (default, scalar, no-pointers, sequential, parallel-heavy, ...).
	Grammar string `json:"grammar,omitempty"`
	// Inject runs the fault-injection self-test variant.
	Inject bool `json:"inject,omitempty"`
	// NoTriage skips divergence triage (triage is on by default).
	NoTriage bool `json:"no_triage,omitempty"`
	// MaxDivergences stops the campaign early (0 = difftest default).
	MaxDivergences int `json:"max_divergences,omitempty"`
}

// CampaignRequest is the /v1/campaign body; the reply is a JobInfo.
// The script runs sandboxed: no filesystem or exec bindings exist,
// and the server clamps MaxSteps and the wall clock.
type CampaignRequest struct {
	// Script is the .oraql campaign script body.
	Script string `json:"script"`
	// Workers is the default worker budget for probe/sweep/fuzz calls
	// that do not set their own (0 = the packages' defaults).
	Workers int `json:"workers,omitempty"`
	// MaxSteps lowers the server's instruction budget for this script
	// (0 = server default; values above the server cap are clamped).
	MaxSteps int64 `json:"max_steps,omitempty"`
}

// CampaignResult is the result payload of a finished campaign job.
type CampaignResult struct {
	// Value is the script's top-level return value.
	Value json.RawMessage `json:"value"`
	// Steps is the instruction-budget units the script consumed.
	Steps int64 `json:"steps"`
	// ScriptSHA256 identifies the executed script body.
	ScriptSHA256 string `json:"script_sha256"`
}

// WarehouseRequest is the POST /v1/warehouse body: one synchronous
// forensics operation against the corpus accumulated in the server's
// shared persistent store.
type WarehouseRequest struct {
	// Op selects the operation: stats (default), query, export.
	Op string `json:"op,omitempty"`

	// Query filters and grouping (op "query").
	Kind    string `json:"kind,omitempty"`    // probe | fuzz | triage
	App     string `json:"app,omitempty"`     // restrict to one app config
	Grammar string `json:"grammar,omitempty"` // restrict to one grammar profile
	By      string `json:"by,omitempty"`      // pass | shape | func | grammar

	// Program is the module to export as a code property graph (op
	// "export"); AliasPairs caps per-function ALIAS edges (0 = default,
	// -1 = none).
	Program    ProgramSpec `json:"program,omitempty"`
	AliasPairs int         `json:"alias_pairs,omitempty"`
}

// WarehouseResponse is the /v1/warehouse reply. Result carries the
// op's payload: warehouse.Stats for stats, []warehouse.Recurrence for
// query, a warehouse.Graph for export — always deterministic bytes
// for a given corpus and program.
type WarehouseResponse struct {
	Op      string          `json:"op"`
	Records int             `json:"records"`
	Result  json.RawMessage `json:"result"`
}

// RegistryInfo is one entry of the /v1/registry reply.
type RegistryInfo struct {
	Kind        string          `json:"kind"`
	Description string          `json:"description"`
	Entries     []RegistryEntry `json:"entries"`
}

// RegistryEntry is one registered extension point.
type RegistryEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobInfo is the wire form of an asynchronous job.
type JobInfo struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"` // probe | fuzz | campaign
	State    string    `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Error is set for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// ScriptSHA256 identifies the script body of campaign jobs.
	ScriptSHA256 string `json:"script_sha256,omitempty"`
	// Result is the job's JSON payload once done: a report.ProbeJSON
	// for probe jobs, a difftest.FuzzResult for fuzz jobs, a
	// CampaignResult for campaign jobs.
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *JobInfo) Terminal() bool {
	return j.State == JobDone || j.State == JobFailed || j.State == JobCanceled
}

// ErrorResponse is the uniform JSON error envelope of every endpoint.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// HealthResponse is the /healthz reply.
type HealthResponse struct {
	OK           bool  `json:"ok"`
	Draining     bool  `json:"draining"`
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_cap"`
	JobsInflight int64 `json:"jobs_inflight"`
}
