package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// frontend translates the wire program spec into frontend options;
// an omitted model is seq.
func (p *ProgramSpec) frontend() (minic.Options, error) {
	name := p.Model
	if name == "" {
		name = "seq"
	}
	m, ok := minic.ModelByName(name)
	if !ok {
		return minic.Options{}, badRequestf("unknown model %q", p.Model)
	}
	d := minic.DialectC
	if p.Fortran {
		d = minic.DialectFortran
	}
	return minic.Options{Dialect: d, Model: m, Views: p.Views}, nil
}

// compileConfig translates a compile request into a pipeline config.
func compileConfig(req *CompileRequest) (pipeline.Config, error) {
	var cfg pipeline.Config
	switch {
	case req.Program.ConfigID != "":
		app := apps.ByID(req.Program.ConfigID)
		if app == nil {
			return cfg, badRequestf("unknown configuration %q", req.Program.ConfigID)
		}
		cfg = pipeline.Config{
			Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
			Frontend: app.Frontend,
		}
	case req.Program.Source != "":
		fe, err := req.Program.frontend()
		if err != nil {
			return cfg, err
		}
		name := req.Program.SourceFile
		if name == "" {
			name = "request.mc"
		}
		cfg = pipeline.Config{
			Name: name, Source: req.Program.Source, SourceFile: name, Frontend: fe,
		}
	default:
		return cfg, badRequestf("program needs config_id or source")
	}

	o := req.Options
	cfg.OptLevel = o.OptLevel
	cfg.FullAAChain = o.FullAAChain
	cfg.AAChain = o.AAChain
	cfg.DisableAAQueryCache = o.DisableAAQueryCache
	cfg.DisableAnalysisCache = o.DisableAnalysisCache
	if o.ORAQL || o.Seq != "" {
		seq, err := oraql.ParseSeq(o.Seq)
		if err != nil {
			return cfg, badRequestf("bad seq: %v", err)
		}
		cfg.ORAQL = &oraql.Options{Seq: seq, Target: o.Target}
	}
	return cfg, nil
}

// probeSpec translates a probe request into a driver benchmark spec.
func probeSpec(req *ProbeRequest) (*driver.BenchSpec, error) {
	var spec *driver.BenchSpec
	switch {
	case req.Program.ConfigID != "":
		app := apps.ByID(req.Program.ConfigID)
		if app == nil {
			return nil, badRequestf("unknown configuration %q", req.Program.ConfigID)
		}
		spec = app.Spec()
	case req.Program.Source != "":
		fe, err := req.Program.frontend()
		if err != nil {
			return nil, err
		}
		name := req.Program.SourceFile
		if name == "" {
			name = "request.mc"
		}
		spec = &driver.BenchSpec{
			Name: name,
			Compile: pipeline.Config{
				Source: req.Program.Source, SourceFile: name, Frontend: fe,
			},
			ORAQL: oraql.Options{Target: req.Target},
		}
		if req.Program.Ranks > 0 {
			spec.Run.NumRanks = req.Program.Ranks
		}
	default:
		return nil, badRequestf("program needs config_id or source")
	}
	if req.Strategy != "" {
		strat, err := driver.StrategyByName(req.Strategy)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		spec.Strategy = strat
	}
	if req.AAChain != "" {
		if _, err := aa.ResolveChainNames(req.AAChain); err != nil {
			return nil, badRequestf("%v", err)
		}
		spec.Compile.AAChain = req.AAChain
	}
	spec.Workers = req.Workers
	spec.MaxTests = req.MaxTests
	spec.DisableExeCache = req.DisableExeCache
	if req.Target != "" {
		spec.ORAQL.Target = req.Target
	}
	return spec, nil
}

// fuzzOptions translates a fuzz request into campaign options.
func fuzzOptions(req *FuzzRequest) (difftest.FuzzOptions, error) {
	gen, err := progen.GrammarByName(req.Grammar, req.Stmts)
	if err != nil {
		return difftest.FuzzOptions{}, badRequestf("%v", err)
	}
	opts := difftest.FuzzOptions{
		N:              req.N,
		Seed:           req.Seed,
		Workers:        req.Workers,
		Gen:            gen,
		Triage:         !req.NoTriage,
		MaxDivergences: req.MaxDivergences,
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if req.Inject {
		opts.Variants = []difftest.Variant{difftest.InjectVariant()}
	}
	return opts, nil
}

// cacheKeys derives the result-cache key pair: moduleHash identifies
// the program and its frontend lowering, configHash the compilation
// options (including response sequence and IR embedding). Both are
// content hashes of the canonical JSON of the respective request part.
func cacheKeys(req *CompileRequest) (moduleHash, configHash string) {
	return hashJSON(req.Program), hashJSON(req.Options)
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Wire types marshal by construction; a failure here is a bug.
		panic(fmt.Sprintf("service: hashJSON: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// badRequest marks client errors (HTTP 400) apart from server faults.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{msg: fmt.Sprintf(format, args...)}
}
