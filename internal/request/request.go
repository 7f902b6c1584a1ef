// Package request holds the wire form of a compile, probe or fuzz
// request and its one translation into what the pipeline, the probing
// driver or the fuzzing campaign takes. oraql-serve decodes these types
// from JSON, campaign scripts fill them from their option maps and the
// oraql CLI from its flags; every surface then calls the same method,
// so how a program and its options become a compile, a probe or a fuzz
// campaign is decided here alone. A surface adds only its own settings
// to the result: its store, its log and its worker default.
//
// Translation reads nothing from the filesystem: a request's program
// and sequence are text.
package request

import (
	"errors"
	"fmt"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
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

// ProbeRequest is the /v1/probe body; the reply is a JobInfo.
type ProbeRequest struct {
	Program ProgramSpec `json:"program"`
	// Strategy is the bisection strategy by registered name: chunked
	// (default), freq, or linear. GET /v1/registry lists the names.
	Strategy string `json:"strategy,omitempty"`
	// AAChain selects the alias-analysis chain for every probe
	// compilation (registered name or comma-separated analysis list).
	AAChain string `json:"aa_chain,omitempty"`
	// Workers above 1 lets the probe test one speculative candidate
	// beside the consumed one (0 = NumCPU, 1 = sequential).
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

// ErrUnknownModel is wrapped by the error of a program whose model no
// frontend knows.
var ErrUnknownModel = errors.New("unknown model")

// resolve translates the program into a one-shot compile config and,
// for a config id, returns the registered configuration too. An inline
// source without a file name is request.mc.
func (p *ProgramSpec) resolve() (*apps.Config, pipeline.Config, error) {
	switch {
	case p.ConfigID != "":
		app := apps.ByID(p.ConfigID)
		if app == nil {
			return nil, pipeline.Config{}, fmt.Errorf("unknown configuration %q", p.ConfigID)
		}
		return app, pipeline.Config{
			Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
			Frontend: app.Frontend,
		}, nil
	case p.Source != "":
		model := p.Model
		if model == "" {
			model = "seq"
		}
		m, ok := minic.ModelByName(model)
		if !ok {
			return nil, pipeline.Config{}, fmt.Errorf("%w %q", ErrUnknownModel, p.Model)
		}
		d := minic.DialectC
		if p.Fortran {
			d = minic.DialectFortran
		}
		name := p.SourceFile
		if name == "" {
			name = "request.mc"
		}
		return nil, pipeline.Config{
			Name: name, Source: p.Source, SourceFile: name,
			Frontend: minic.Options{Dialect: d, Model: m, Views: p.Views},
		}, nil
	}
	return nil, pipeline.Config{}, errors.New("program needs a config id or a source")
}

// Config translates the request into a pipeline config.
func (r *CompileRequest) Config() (pipeline.Config, error) {
	_, cfg, err := r.Program.resolve()
	if err != nil {
		return cfg, err
	}
	o := r.Options
	cfg.OptLevel = o.OptLevel
	cfg.FullAAChain = o.FullAAChain
	cfg.AAChain = o.AAChain
	cfg.DisableAnalysisCache = o.DisableAnalysisCache
	if o.ORAQL || o.Seq != "" {
		seq, err := oraql.ParseSeq(o.Seq)
		if err != nil {
			return cfg, fmt.Errorf("bad seq: %w", err)
		}
		cfg.ORAQL = &oraql.Options{Seq: seq, Target: o.Target}
	}
	return cfg, nil
}

// Spec translates the request into a driver benchmark spec. strategies
// resolves the strategy name: driver.StrategyByName, or a campaign
// script's lookup that also knows the strategies it registered.
func (r *ProbeRequest) Spec(strategies func(name string) (driver.Strategy, error)) (*driver.BenchSpec, error) {
	app, cfg, err := r.Program.resolve()
	if err != nil {
		return nil, err
	}
	spec := &driver.BenchSpec{Name: cfg.Name, Compile: cfg}
	if app != nil {
		spec = app.Spec()
	} else if r.Program.Ranks > 0 {
		spec.Run.NumRanks = r.Program.Ranks
	}
	if r.Strategy != "" {
		if spec.Strategy, err = strategies(r.Strategy); err != nil {
			return nil, err
		}
	}
	if r.AAChain != "" {
		if _, err := aa.ResolveChainNames(r.AAChain); err != nil {
			return nil, err
		}
		spec.Compile.AAChain = r.AAChain
	}
	spec.Workers = r.Workers
	spec.MaxTests = r.MaxTests
	spec.DisableExeCache = r.DisableExeCache
	if r.Target != "" {
		spec.ORAQL.Target = r.Target
	}
	return spec, nil
}

// Options translates the request into fuzzing-campaign options. The
// findings are labelled with the resolved grammar profile, so an empty
// grammar files them under progen.DefaultGrammar.
func (r *FuzzRequest) Options() (difftest.FuzzOptions, error) {
	grammar := r.Grammar
	if grammar == "" {
		grammar = progen.DefaultGrammar
	}
	gen, err := progen.GrammarByName(grammar, r.Stmts)
	if err != nil {
		return difftest.FuzzOptions{}, err
	}
	opts := difftest.FuzzOptions{
		N:              r.N,
		Seed:           r.Seed,
		Workers:        r.Workers,
		Gen:            gen,
		Grammar:        grammar,
		Triage:         !r.NoTriage,
		MaxDivergences: r.MaxDivergences,
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if r.Inject {
		opts.Variants = []difftest.Variant{difftest.InjectVariant()}
	}
	return opts, nil
}
