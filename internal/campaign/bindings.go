package campaign

// The ORAQL bindings: the host functions a campaign script can call.
// Everything funnels through the same driver/pipeline/difftest entry
// points the CLIs and oraql-serve use, so a scripted campaign is
// byte-identical to its compiled-in equivalent — same FinalSeq, same
// verdicts, same exe hashes — for any worker count. The sandbox is
// structural: this is the complete surface, and none of it reaches
// the filesystem or spawns processes.

import (
	"bytes"
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
	"github.com/oraql/go-oraql/internal/registry"
	"github.com/oraql/go-oraql/internal/report"
)

func oraqlBuiltins() []*Builtin {
	// intro lists a registry; the registry is resolved per call so
	// strategies() can reflect the run's overlay (script-registered
	// strategies) rather than only the global table.
	intro := func(name string, reg func(in *interp) *registry.Registry, doc string) *Builtin {
		return &Builtin{
			Name: name,
			Doc:  doc,
			Fn: func(in *interp, line int, args []any) (any, error) {
				if len(args) != 0 {
					return nil, scriptErr(line, "%s takes no arguments", name)
				}
				var out []any
				for _, e := range reg(in).Entries() {
					out = append(out, map[string]any{
						"name":        e.Name,
						"description": e.Description,
					})
				}
				return out, nil
			},
		}
	}
	static := func(r *registry.Registry) func(in *interp) *registry.Registry {
		return func(in *interp) *registry.Registry { return r }
	}
	return []*Builtin{
		intro("strategies", (*interp).strategyReg, "strategies() — registered probing strategies (including this run's register_strategy entries) as [{name, description}]"),
		intro("aa_analyses", static(registry.AAAnalyses), "aa_analyses() — registered alias analyses as [{name, description}]"),
		intro("aa_chains", static(registry.AAChains), "aa_chains() — registered AA chain presets as [{name, description}]"),
		intro("app_configs", static(registry.AppConfigs), "app_configs() — registered application configurations as [{name, description}]"),
		intro("grammars", static(registry.Grammars), "grammars() — registered generator grammar profiles as [{name, description}]"),
		{
			Name: "compile",
			Doc:  "compile({config|source, model, aa_chain, seq, oraql, target, opt_level}) — one compilation; returns the compile report",
			Fn:   bindCompile,
		},
		{
			Name: "compile_batch",
			Doc:  "compile_batch([{...}, ...]) — compile a list of option maps, deduplicated by content; returns the reports in order",
			Fn:   bindCompileBatch,
		},
		{
			Name: "probe",
			Doc:  "probe({config|source, model, strategy, aa_chain, workers, max_tests, target}) — full ORAQL probing campaign; returns the probe report",
			Fn:   bindProbe,
		},
		{
			Name: "sweep",
			Doc:  "sweep({configs, strategy, aa_chain, workers, max_tests}) — probe a list of app configs (default: all); returns a list of probe reports",
			Fn:   bindSweep,
		},
		{
			Name: "fuzz",
			Doc:  "fuzz({n, seed, grammar, stmts, workers, inject, triage, max_divergences, seed_from_warehouse}) — differential fuzzing campaign; returns the campaign report",
			Fn:   bindFuzz,
		},
	}
}

// opts is a type-checked view of a script's option map.
type opts struct {
	m    map[string]any
	line int
	used map[string]bool
}

func newOpts(line int, args []any, what string) (*opts, error) {
	switch len(args) {
	case 0:
		return &opts{m: map[string]any{}, line: line, used: map[string]bool{}}, nil
	case 1:
		m, ok := args[0].(map[string]any)
		if !ok {
			return nil, scriptErr(line, "%s takes an options map, got %s", what, typeName(args[0]))
		}
		return &opts{m: m, line: line, used: map[string]bool{}}, nil
	}
	return nil, scriptErr(line, "%s takes at most one options map, got %d arguments", what, len(args))
}

func (o *opts) str(key string) (string, error) {
	o.used[key] = true
	v, ok := o.m[key]
	if !ok || v == nil {
		return "", nil
	}
	s, ok := v.(string)
	if !ok {
		return "", scriptErr(o.line, "option %q must be a string, got %s", key, typeName(v))
	}
	return s, nil
}

func (o *opts) integer(key string) (int, error) {
	o.used[key] = true
	v, ok := o.m[key]
	if !ok || v == nil {
		return 0, nil
	}
	i, ok := v.(int64)
	if !ok {
		return 0, scriptErr(o.line, "option %q must be an integer, got %s", key, typeName(v))
	}
	return int(i), nil
}

func (o *opts) boolean(key string) (bool, error) {
	o.used[key] = true
	v, ok := o.m[key]
	if !ok || v == nil {
		return false, nil
	}
	b, ok := v.(bool)
	if !ok {
		return false, scriptErr(o.line, "option %q must be a boolean, got %s", key, typeName(v))
	}
	return b, nil
}

func (o *opts) strList(key string) ([]string, error) {
	o.used[key] = true
	v, ok := o.m[key]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, scriptErr(o.line, "option %q must be a list of strings, got %s", key, typeName(v))
	}
	out := make([]string, len(l))
	for i, el := range l {
		s, ok := el.(string)
		if !ok {
			return nil, scriptErr(o.line, "option %q must be a list of strings; element %d is %s", key, i, typeName(el))
		}
		out[i] = s
	}
	return out, nil
}

// finish rejects unknown keys so typos fail loudly instead of being
// silently ignored.
func (o *opts) finish(what string) error {
	for k := range o.m {
		if !o.used[k] {
			return scriptErr(o.line, "%s: unknown option %q", what, k)
		}
	}
	return nil
}

// program resolves the config/source option pair shared by compile
// and probe into a pipeline config skeleton.
func (o *opts) program(what string) (pipeline.Config, error) {
	id, err := o.str("config")
	if err != nil {
		return pipeline.Config{}, err
	}
	source, err := o.str("source")
	if err != nil {
		return pipeline.Config{}, err
	}
	switch {
	case id != "":
		app := apps.ByID(id)
		if app == nil {
			return pipeline.Config{}, scriptErr(o.line, "%s: unknown configuration %q", what, id)
		}
		return pipeline.Config{
			Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
			Frontend: app.Frontend,
		}, nil
	case source != "":
		model, err := o.str("model")
		if err != nil {
			return pipeline.Config{}, err
		}
		fortran, err := o.boolean("fortran")
		if err != nil {
			return pipeline.Config{}, err
		}
		views, err := o.boolean("views")
		if err != nil {
			return pipeline.Config{}, err
		}
		if model == "" {
			model = "seq"
		}
		m, ok := minic.ModelByName(model)
		if !ok {
			return pipeline.Config{}, scriptErr(o.line, "%s: unknown model %q", what, model)
		}
		d := minic.DialectC
		if fortran {
			d = minic.DialectFortran
		}
		name, err := o.str("name")
		if err != nil {
			return pipeline.Config{}, err
		}
		if name == "" {
			name = "campaign.mc"
		}
		return pipeline.Config{
			Name: name, Source: source, SourceFile: name,
			Frontend: minic.Options{Dialect: d, Model: m, Views: views},
		}, nil
	}
	return pipeline.Config{}, scriptErr(o.line, "%s needs a config name or a source string", what)
}

// compileConfigFromOpts resolves compile's option map into a ready
// pipeline config; shared by compile and compile_batch so a batched
// item is configured byte-identically to its one-shot equivalent.
func compileConfigFromOpts(in *interp, o *opts, what string) (cfg pipeline.Config, hadORAQL bool, err error) {
	cfg, err = o.program(what)
	if err != nil {
		return cfg, false, err
	}
	if cfg.OptLevel, err = o.integer("opt_level"); err != nil {
		return cfg, false, err
	}
	if cfg.AAChain, err = o.str("aa_chain"); err != nil {
		return cfg, false, err
	}
	seq, err := o.str("seq")
	if err != nil {
		return cfg, false, err
	}
	useORAQL, err := o.boolean("oraql")
	if err != nil {
		return cfg, false, err
	}
	target, err := o.str("target")
	if err != nil {
		return cfg, false, err
	}
	hadORAQL = useORAQL || seq != ""
	if hadORAQL {
		s, err := oraql.ParseSeq(seq)
		if err != nil {
			return cfg, false, scriptErr(o.line, "%s: bad seq: %v", what, err)
		}
		cfg.ORAQL = &oraql.Options{Seq: s, Target: target}
	}
	if err := o.finish(what); err != nil {
		return cfg, false, err
	}
	cfg.DiskCache = in.opts.Cache
	return cfg, hadORAQL, nil
}

func bindCompile(in *interp, line int, args []any) (any, error) {
	o, err := newOpts(line, args, "compile")
	if err != nil {
		return nil, err
	}
	cfg, hadORAQL, err := compileConfigFromOpts(in, o, "compile")
	if err != nil {
		return nil, err
	}
	cr, err := pipeline.CompileContext(in.ctx, cfg)
	if err != nil {
		return nil, err
	}
	return toScriptValue(report.NewCompileJSON(cr, false, hadORAQL))
}

// bindCompileBatch amortizes a list of compilations: items whose
// option maps are identical (canonical JSON) compile once, and every
// item's report is materialized freshly so duplicates never alias one
// mutable script value. Results come back in item order, each
// byte-identical to what a loop of compile() calls would produce.
func bindCompileBatch(in *interp, line int, args []any) (any, error) {
	if len(args) != 1 {
		return nil, scriptErr(line, "compile_batch takes one list of option maps, got %d arguments", len(args))
	}
	list, ok := args[0].([]any)
	if !ok {
		return nil, scriptErr(line, "compile_batch takes a list of option maps, got %s", typeName(args[0]))
	}
	seen := map[string]any{} // canonical item JSON -> host-form report
	out := make([]any, 0, len(list))
	for i, item := range list {
		m, ok := item.(map[string]any)
		if !ok {
			return nil, scriptErr(line, "compile_batch: element %d must be an options map, got %s", i, typeName(item))
		}
		keyBytes, err := json.Marshal(m) // map keys marshal sorted: a canonical dedup key
		if err != nil {
			return nil, scriptErr(line, "compile_batch: element %d: %v", i, err)
		}
		rep, ok := seen[string(keyBytes)]
		if !ok {
			o, err := newOpts(line, []any{m}, "compile_batch")
			if err != nil {
				return nil, err
			}
			cfg, hadORAQL, err := compileConfigFromOpts(in, o, "compile_batch")
			if err != nil {
				return nil, err
			}
			cr, err := pipeline.CompileContext(in.ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("compile_batch element %d: %w", i, err)
			}
			rep = report.NewCompileJSON(cr, false, hadORAQL)
			seen[string(keyBytes)] = rep
		}
		v, err := toScriptValue(rep)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// probeSpecFromOpts builds a benchmark spec from shared probe/sweep
// options; configOverride substitutes the per-iteration sweep config.
func probeSpecFromOpts(in *interp, o *opts, configOverride string, what string) (*driver.BenchSpec, error) {
	var spec *driver.BenchSpec
	if configOverride != "" {
		app := apps.ByID(configOverride)
		if app == nil {
			return nil, scriptErr(o.line, "%s: unknown configuration %q", what, configOverride)
		}
		spec = app.Spec()
	} else {
		id, err := o.str("config")
		if err != nil {
			return nil, err
		}
		if id != "" {
			app := apps.ByID(id)
			if app == nil {
				return nil, scriptErr(o.line, "%s: unknown configuration %q", what, id)
			}
			spec = app.Spec()
		} else {
			cfg, err := o.program(what)
			if err != nil {
				return nil, err
			}
			spec = &driver.BenchSpec{Name: cfg.Name, Compile: cfg}
		}
	}
	strategy, err := o.str("strategy")
	if err != nil {
		return nil, err
	}
	if strategy != "" {
		// Resolved against the run's overlay, so script-registered
		// strategies are selectable exactly like built-ins.
		strat, err := in.lookupStrategy(strategy)
		if err != nil {
			return nil, scriptErr(o.line, "%s: %v", what, err)
		}
		spec.Strategy = strat
	}
	chain, err := o.str("aa_chain")
	if err != nil {
		return nil, err
	}
	if chain != "" {
		if _, err := aa.ResolveChainNames(chain); err != nil {
			return nil, scriptErr(o.line, "%s: %v", what, err)
		}
		spec.Compile.AAChain = chain
	}
	if spec.Workers, err = o.integer("workers"); err != nil {
		return nil, err
	}
	if spec.Workers == 0 {
		spec.Workers = in.opts.Workers
	}
	if spec.MaxTests, err = o.integer("max_tests"); err != nil {
		return nil, err
	}
	target, err := o.str("target")
	if err != nil {
		return nil, err
	}
	if target != "" {
		spec.ORAQL.Target = target
	}
	spec.Cache = in.opts.Cache
	spec.Log = in.opts.Log
	return spec, nil
}

func bindProbe(in *interp, line int, args []any) (any, error) {
	o, err := newOpts(line, args, "probe")
	if err != nil {
		return nil, err
	}
	spec, err := probeSpecFromOpts(in, o, "", "probe")
	if err != nil {
		return nil, err
	}
	if err := o.finish("probe"); err != nil {
		return nil, err
	}
	res, err := driver.ProbeContext(in.ctx, spec)
	if err != nil {
		return nil, err
	}
	return toScriptValue(report.NewProbeJSON(res))
}

func bindSweep(in *interp, line int, args []any) (any, error) {
	o, err := newOpts(line, args, "sweep")
	if err != nil {
		return nil, err
	}
	ids, err := o.strList("configs")
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		for _, c := range apps.All() {
			ids = append(ids, c.ID)
		}
	}
	var out []any
	for _, id := range ids {
		spec, err := probeSpecFromOpts(in, o, id, "sweep")
		if err != nil {
			return nil, err
		}
		in.printf("sweep: probing %s\n", id)
		res, err := driver.ProbeContext(in.ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", id, err)
		}
		v, err := toScriptValue(report.NewProbeJSON(res))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if err := o.finish("sweep"); err != nil {
		return nil, err
	}
	return out, nil
}

func bindFuzz(in *interp, line int, args []any) (any, error) {
	o, err := newOpts(line, args, "fuzz")
	if err != nil {
		return nil, err
	}
	fo := difftest.FuzzOptions{
		Ctx:   in.ctx,
		Cache: in.opts.Cache,
		Log:   in.opts.Log,
	}
	if fo.N, err = o.integer("n"); err != nil {
		return nil, err
	}
	seed, err := o.integer("seed")
	if err != nil {
		return nil, err
	}
	fo.Seed = int64(seed)
	if fo.Seed == 0 {
		fo.Seed = 1
	}
	if fo.Workers, err = o.integer("workers"); err != nil {
		return nil, err
	}
	if fo.Workers == 0 {
		fo.Workers = in.opts.Workers
	}
	if fo.MaxDivergences, err = o.integer("max_divergences"); err != nil {
		return nil, err
	}
	grammar, err := o.str("grammar")
	if err != nil {
		return nil, err
	}
	stmts, err := o.integer("stmts")
	if err != nil {
		return nil, err
	}
	if fo.Gen, err = progen.GrammarByName(grammar, stmts); err != nil {
		return nil, scriptErr(line, "fuzz: %v", err)
	}
	fo.Grammar = grammar
	seedFromWarehouse, err := o.boolean("seed_from_warehouse")
	if err != nil {
		return nil, err
	}
	if seedFromWarehouse {
		w, err := openWarehouse(in, line, "fuzz: seed_from_warehouse")
		if err != nil {
			return nil, err
		}
		fo.PrioritySeeds = w.Load().DivergentSeeds(grammar)
	}
	// Triage defaults on, like the CLI.
	fo.Triage = true
	o.used["triage"] = true
	if v, ok := o.m["triage"]; ok {
		b, ok := v.(bool)
		if !ok {
			return nil, scriptErr(line, "option %q must be a boolean, got %s", "triage", typeName(v))
		}
		fo.Triage = b
	}
	inject, err := o.boolean("inject")
	if err != nil {
		return nil, err
	}
	if inject {
		fo.Variants = []difftest.Variant{difftest.InjectVariant()}
	}
	if err := o.finish("fuzz"); err != nil {
		return nil, err
	}
	res, err := difftest.Fuzz(fo)
	if err != nil {
		return nil, err
	}
	return toScriptValue(res)
}

// toScriptValue converts a host result into the script value model by
// a JSON round-trip, preserving integers as int64.
func toScriptValue(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var out any
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return normalizeNumbers(out), nil
}

func normalizeNumbers(v any) any {
	switch v := v.(type) {
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return i
		}
		f, _ := v.Float64()
		return f
	case []any:
		for i := range v {
			v[i] = normalizeNumbers(v[i])
		}
		return v
	case map[string]any:
		for k := range v {
			v[k] = normalizeNumbers(v[k])
		}
		return v
	}
	return v
}
