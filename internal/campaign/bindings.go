package campaign

// The ORAQL bindings: the host functions a campaign script can call.
// Each decodes its option map into a struct of the keys it accepts,
// fills the request type of internal/request and calls its one
// translation, the one oraql-serve and the oraql CLI call too; from
// there everything funnels through the same driver/pipeline/difftest
// entry points, so a scripted campaign is byte-identical to its
// compiled-in equivalent — same FinalSeq, same verdicts, same exe
// hashes — for any worker count. The sandbox is structural: this is
// the complete surface, and none of it reaches the filesystem or
// spawns processes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/registry"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/request"
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
			Doc:  "compile({config|source, model, fortran, views, name, aa_chain, seq, oraql, target, opt_level}) — one compilation; returns the compile report",
			Fn:   bindCompile,
		},
		{
			Name: "compile_batch",
			Doc:  "compile_batch([{...}, ...]) — compile a list of option maps, deduplicated by content; returns the reports in order",
			Fn:   bindCompileBatch,
		},
		{
			Name: "probe",
			Doc:  "probe({config|source, model, fortran, views, name, strategy, aa_chain, workers, max_tests, target}) — full ORAQL probing campaign; returns the probe report",
			Fn:   bindProbe,
		},
		{
			Name: "sweep",
			Doc:  "sweep({configs, strategy, aa_chain, workers, max_tests, target}) — probe a list of app configs (default: all); returns a list of probe reports",
			Fn:   bindSweep,
		},
		{
			Name: "fuzz",
			Doc:  "fuzz({n, seed, grammar, stmts, workers, inject, triage, max_divergences, seed_from_warehouse}) — differential fuzzing campaign; returns the campaign report",
			Fn:   bindFuzz,
		},
	}
}

// decodeOpts decodes a binding's options map into dst, a pointer to a
// struct that declares every key the binding accepts in the name of a
// json tag; embedded structs add their keys. Keys match exactly, an
// undeclared key fails the call, and a missing or nil key leaves its
// field as dst had it, so dst carries the defaults.
func decodeOpts(line int, args []any, what string, dst any) error {
	var m map[string]any
	switch len(args) {
	case 0:
	case 1:
		var ok bool
		if m, ok = args[0].(map[string]any); !ok {
			return scriptErr(line, "%s takes an options map, got %s", what, typeName(args[0]))
		}
	default:
		return scriptErr(line, "%s takes at most one options map, got %d arguments", what, len(args))
	}
	fields := map[string]reflect.Value{}
	optFields(reflect.ValueOf(dst).Elem(), fields)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f, ok := fields[k]
		if !ok {
			return scriptErr(line, "%s: unknown option %q", what, k)
		}
		if err := setOpt(line, k, f, m[k]); err != nil {
			return err
		}
	}
	return nil
}

func optFields(v reflect.Value, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if sf.Anonymous {
			optFields(v.Field(i), out)
			continue
		}
		name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		out[name] = v.Field(i)
	}
}

// setOpt type-checks one script value against its field's kind.
func setOpt(line int, key string, f reflect.Value, v any) error {
	if v == nil {
		return nil
	}
	bad := func(want string) error {
		return scriptErr(line, "option %q must be %s, got %s", key, want, typeName(v))
	}
	switch f.Kind() {
	case reflect.String:
		s, ok := v.(string)
		if !ok {
			return bad("a string")
		}
		f.SetString(s)
	case reflect.Int, reflect.Int64:
		i, ok := v.(int64)
		if !ok {
			return bad("an integer")
		}
		f.SetInt(i)
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return bad("a boolean")
		}
		f.SetBool(b)
	default: // []string
		l, ok := v.([]any)
		if !ok {
			return bad("a list of strings")
		}
		out := make([]string, len(l))
		for i, el := range l {
			if out[i], ok = el.(string); !ok {
				return scriptErr(line, "option %q must be a list of strings; element %d is %s", key, i, typeName(el))
			}
		}
		f.Set(reflect.ValueOf(out))
	}
	return nil
}

// program is the key group compile and probe share: a registered
// configuration by id, or an inline source. A config id ignores the
// source-only keys, as the wire does.
type program struct {
	Config  string `json:"config"`
	Source  string `json:"source"`
	Model   string `json:"model"`
	Fortran bool   `json:"fortran"`
	Views   bool   `json:"views"`
	Name    string `json:"name"`
}

// spec is the program's wire form; an unnamed source is campaign.mc.
func (p *program) spec() request.ProgramSpec {
	name := p.Name
	if name == "" {
		name = "campaign.mc"
	}
	return request.ProgramSpec{
		ConfigID: p.Config, Source: p.Source, SourceFile: name,
		Model: p.Model, Fortran: p.Fortran, Views: p.Views,
	}
}

// compileConfig decodes one compile option map and translates it;
// compile and compile_batch share it, so a batched item is configured
// byte-identically to its one-shot equivalent.
func compileConfig(in *interp, line int, args []any, what string) (pipeline.Config, error) {
	var o struct {
		program
		OptLevel int    `json:"opt_level"`
		AAChain  string `json:"aa_chain"`
		Seq      string `json:"seq"`
		ORAQL    bool   `json:"oraql"`
		Target   string `json:"target"`
	}
	if err := decodeOpts(line, args, what, &o); err != nil {
		return pipeline.Config{}, err
	}
	req := request.CompileRequest{
		Program: o.spec(),
		Options: request.CompileOptions{
			OptLevel: o.OptLevel, AAChain: o.AAChain, ORAQL: o.ORAQL, Seq: o.Seq, Target: o.Target,
		},
	}
	cfg, err := req.Config()
	if err != nil {
		return cfg, scriptErr(line, "%s: %v", what, err)
	}
	cfg.DiskCache = in.opts.Cache
	return cfg, nil
}

func bindCompile(in *interp, line int, args []any) (any, error) {
	cfg, err := compileConfig(in, line, args, "compile")
	if err != nil {
		return nil, err
	}
	cr, err := pipeline.CompileContext(in.ctx, cfg)
	if err != nil {
		return nil, err
	}
	return toScriptValue(report.NewCompileJSON(cr, false, cfg.ORAQL != nil))
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
			cfg, err := compileConfig(in, line, []any{m}, "compile_batch")
			if err != nil {
				return nil, err
			}
			cr, err := pipeline.CompileContext(in.ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("compile_batch element %d: %w", i, err)
			}
			rep = report.NewCompileJSON(cr, false, cfg.ORAQL != nil)
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

// probeOpts are the keys probe and sweep share.
type probeOpts struct {
	Strategy string `json:"strategy"`
	AAChain  string `json:"aa_chain"`
	Workers  int    `json:"workers"`
	MaxTests int    `json:"max_tests"`
	Target   string `json:"target"`
}

// benchSpec translates one probe of prog. Strategies resolve against
// the run's overlay, so script-registered strategies are selectable
// exactly like built-ins, and workers default to the run's.
func (o *probeOpts) benchSpec(in *interp, line int, what string, prog request.ProgramSpec) (*driver.BenchSpec, error) {
	req := request.ProbeRequest{
		Program: prog, Strategy: o.Strategy, AAChain: o.AAChain,
		Workers: o.Workers, MaxTests: o.MaxTests, Target: o.Target,
	}
	if req.Workers == 0 {
		req.Workers = in.opts.Workers
	}
	spec, err := req.Spec(in.lookupStrategy)
	if err != nil {
		return nil, scriptErr(line, "%s: %v", what, err)
	}
	spec.Cache = in.opts.Cache
	spec.Log = in.opts.Log
	return spec, nil
}

func bindProbe(in *interp, line int, args []any) (any, error) {
	var o struct {
		program
		probeOpts
	}
	if err := decodeOpts(line, args, "probe", &o); err != nil {
		return nil, err
	}
	spec, err := o.benchSpec(in, line, "probe", o.spec())
	if err != nil {
		return nil, err
	}
	res, err := driver.ProbeContext(in.ctx, spec)
	if err != nil {
		return nil, err
	}
	return toScriptValue(report.NewProbeJSON(res))
}

func bindSweep(in *interp, line int, args []any) (any, error) {
	var o struct {
		Configs []string `json:"configs"`
		probeOpts
	}
	if err := decodeOpts(line, args, "sweep", &o); err != nil {
		return nil, err
	}
	ids := o.Configs
	if len(ids) == 0 {
		for _, c := range apps.All() {
			ids = append(ids, c.ID)
		}
	}
	var out []any
	for _, id := range ids {
		spec, err := o.benchSpec(in, line, "sweep", request.ProgramSpec{ConfigID: id})
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
	return out, nil
}

func bindFuzz(in *interp, line int, args []any) (any, error) {
	o := struct {
		N                 int    `json:"n"`
		Seed              int64  `json:"seed"`
		Workers           int    `json:"workers"`
		Stmts             int    `json:"stmts"`
		Grammar           string `json:"grammar"`
		Inject            bool   `json:"inject"`
		Triage            bool   `json:"triage"`
		MaxDivergences    int    `json:"max_divergences"`
		SeedFromWarehouse bool   `json:"seed_from_warehouse"`
	}{Triage: true} // triage defaults on, like the CLI
	if err := decodeOpts(line, args, "fuzz", &o); err != nil {
		return nil, err
	}
	req := request.FuzzRequest{
		N: o.N, Seed: o.Seed, Workers: o.Workers, Stmts: o.Stmts, Grammar: o.Grammar,
		Inject: o.Inject, NoTriage: !o.Triage, MaxDivergences: o.MaxDivergences,
	}
	if req.Workers == 0 {
		req.Workers = in.opts.Workers
	}
	fo, err := req.Options()
	if err != nil {
		return nil, scriptErr(line, "fuzz: %v", err)
	}
	fo.Ctx, fo.Cache, fo.Log = in.ctx, in.opts.Cache, in.opts.Log
	if o.SeedFromWarehouse {
		w, err := openWarehouse(in, line, "fuzz: seed_from_warehouse")
		if err != nil {
			return nil, err
		}
		fo.PrioritySeeds = w.Load().DivergentSeeds(fo.Grammar)
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
