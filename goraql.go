// Package goraql is the public API of go-oraql, a reproduction of
// "ORAQL — Optimistic Responses to Alias Queries in LLVM" (Hückelheim
// & Doerfert, ICPP 2023) as a self-contained Go library.
//
// The package bundles a small optimizing compiler (the minic frontend,
// an SSA IR, an alias-analysis manager with seven conservative
// analyses, an -O3-style pass pipeline, and a virtual-ISA backend), a
// deterministic simulated machine to run compiled programs on, and the
// ORAQL tooling itself: the optimistic alias-response pass, the
// bisection-probing driver, and the verification harness.
//
// Quick start:
//
//	spec := &goraql.ProbeSpec{
//	    Name:    "demo",
//	    Compile: goraql.CompileConfig{Source: src},
//	}
//	res, err := goraql.Probe(spec)
//	// res.FullyOptimistic, res.FinalSeq, res.Final.Compile.ORAQLStats() ...
//
// The sixteen benchmark configurations of the paper's Fig. 4 are
// available through Benchmarks and BenchmarkByID.
package goraql

import (
	"context"
	"io"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/verify"
)

// Frontend configuration.
type (
	// FrontendOptions selects the source dialect and parallel model.
	FrontendOptions = minic.Options
	// Dialect is the source-language flavour (C or Fortran-style).
	Dialect = minic.Dialect
	// Model is the parallel programming model lowering.
	Model = minic.Model
)

// Frontend dialects and models.
const (
	DialectC       = minic.DialectC
	DialectFortran = minic.DialectFortran

	ModelSeq     = minic.ModelSeq
	ModelOpenMP  = minic.ModelOpenMP
	ModelTasks   = minic.ModelTasks
	ModelMPI     = minic.ModelMPI
	ModelOffload = minic.ModelOffload
)

// Compilation types.
type (
	// CompileConfig describes one compilation (source, frontend
	// options, optional ORAQL options).
	CompileConfig = pipeline.Config
	// Compilation is the result of CompileSource.
	Compilation = pipeline.CompileResult
	// Module is an IR translation unit.
	Module = ir.Module
)

// CompileSource compiles a minic source text through the full -O3
// pipeline; cfg.ORAQL (optional) installs the ORAQL pass with the
// given response sequence.
func CompileSource(cfg CompileConfig) (*Compilation, error) {
	return pipeline.Compile(cfg)
}

// CompileSourceContext is CompileSource with cancellation: ctx is
// checked before the frontend, between pass executions, and before
// codegen.
func CompileSourceContext(ctx context.Context, cfg CompileConfig) (*Compilation, error) {
	return pipeline.CompileContext(ctx, cfg)
}

// Execution types.
type (
	// RunOptions configures the simulated machine.
	RunOptions = irinterp.Options
	// RunResult is the outcome of a simulated run.
	RunResult = irinterp.Result
	// Program is a compiled host(+device) module pair.
	Program = irinterp.Program
)

// RunProgram executes a compiled program on the simulated machine.
func RunProgram(p *Program, opts RunOptions) (*RunResult, error) {
	return irinterp.Run(p, opts)
}

// ORAQL pass types.
type (
	// ORAQLOptions configures the ORAQL responder (sequence, target
	// filter, dump flags).
	ORAQLOptions = oraql.Options
	// Seq is an ORAQL response sequence ("1" optimistic, "0"
	// pessimistic).
	Seq = oraql.Seq
	// ORAQLStats are the pass counters (unique/cached x
	// optimistic/pessimistic).
	ORAQLStats = oraql.Stats
	// QueryRecord describes one unique ORAQL query. A record of a
	// compilation restored from a TU artifact (a probe's final build
	// with a store, for one) carries its rendered locations, and its A
	// and B hold no IR pointers: read them through LocDescriptions and
	// SrcLocs.
	QueryRecord = oraql.QueryRecord
)

// ParseSeq parses "-opt-aa-seq" sequence text ("1 0 1 ..."). It reads
// no file: the "@file" response-file form is `oraql opt`'s to expand.
func ParseSeq(s string) (Seq, error) { return oraql.ParseSeq(s) }

// Probing driver types.
type (
	// ProbeSpec is a benchmark specification for the probing driver.
	ProbeSpec = driver.BenchSpec
	// ProbeResult is the full probing outcome.
	ProbeResult = driver.Result
	// Strategy is a registered bisection strategy
	// (ProbeSpec.Strategy); StrategyByName resolves one from its
	// registered name.
	Strategy = driver.Strategy
	// VerifySpec configures output verification.
	VerifySpec = verify.Spec
)

// Built-in bisection strategies. Linear is the one-query-at-a-time
// diagnostic baseline.
var (
	Chunked   = driver.Chunked
	FreqSpace = driver.FreqSpace
	Linear    = driver.Linear
)

// StrategyByName resolves a registered probing strategy ("chunked",
// "freq", "linear", or anything registered by an importing package).
func StrategyByName(name string) (Strategy, error) { return driver.StrategyByName(name) }

// Probe runs the full ORAQL workflow: baseline, fully-optimistic
// attempt, and bisection to a locally maximal optimistic sequence.
func Probe(spec *ProbeSpec) (*ProbeResult, error) { return driver.Probe(spec) }

// ProbeContext is Probe with cancellation: the decision loop,
// speculative workers, and every compilation observe ctx.
func ProbeContext(ctx context.Context, spec *ProbeSpec) (*ProbeResult, error) {
	return driver.ProbeContext(ctx, spec)
}

// Alias-analysis extension points.
type (
	// AliasAnalysis is the interface custom analyses implement to join
	// the manager chain.
	AliasAnalysis = aa.Analysis
	// AliasResult is the four-valued query answer.
	AliasResult = aa.Result
	// MemLoc is one side of an alias query.
	MemLoc = aa.MemLoc
	// QueryCtx carries the requesting pass and function.
	QueryCtx = aa.QueryCtx
	// AAStats are the manager's query statistics: outcomes, no-alias
	// answers per analysis and queries per requesting pass.
	AAStats = aa.Stats
)

// Alias results.
const (
	MayAlias     = aa.MayAlias
	NoAlias      = aa.NoAlias
	PartialAlias = aa.PartialAlias
	MustAlias    = aa.MustAlias
)

// Pass-manager instrumentation types.
type (
	// PassTiming is the per-pass execution accounting of one
	// compilation (-time-passes): runs, changed runs, wall time.
	PassTiming = passes.Timing
	// AnalysisStats are the analysis manager's per-analysis cache
	// counters (hits, misses, invalidations).
	AnalysisStats = analysis.Stats
)

// Benchmark registry (the paper's Fig. 4 configurations).
type (
	// Benchmark is one evaluation configuration.
	Benchmark = apps.Config
	// Experiment is a probed configuration with its results.
	Experiment = report.Experiment
)

// Benchmarks returns all sixteen configurations in Fig. 4 row order.
func Benchmarks() []*Benchmark { return apps.All() }

// BenchmarkByID returns a configuration by its stable id (e.g.
// "testsnap-openmp"), or nil.
func BenchmarkByID(id string) *Benchmark { return apps.ByID(id) }

// RunBenchmark probes one benchmark configuration.
func RunBenchmark(b *Benchmark, log io.Writer) (*Experiment, error) {
	return report.Run(b, log)
}

// Table renderers for the paper's figures.
var (
	// Fig4Table renders the alias-query statistics table.
	Fig4Table = report.Fig4
	// Fig6Table renders the pass-statistic deltas.
	Fig6Table = report.Fig6
	// Fig7Table renders per-kernel register/stack changes.
	Fig7Table = report.Fig7
	// Fig3Dump renders the pessimistic-query report.
	Fig3Dump = report.Fig3
	// RuntimeTable renders the dynamic-execution comparison.
	RuntimeTable = report.Runtime
)
