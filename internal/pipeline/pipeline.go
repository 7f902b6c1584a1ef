// Package pipeline is the compiler driver (the "clang" of the
// reproduction): it runs the minic frontend, assembles the alias
// analysis chain — with the ORAQL pass appended last when probing —
// runs the -O3 pass pipeline, and lowers to machine code for the
// executable hash and the machine statistics. Offload programs compile
// host and device modules as separate compilations that share one
// ORAQL option set, reproducing the paper's multi-target behaviour
// (Section IV-E): the sequence is reused for all targets.
package pipeline

import (
	"bytes"
	"context"
	"fmt"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/analysis"
	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
)

// Config describes one compilation of one benchmark source.
type Config struct {
	// Name identifies the compilation in diagnostics.
	Name string
	// Source is the minic source text; SourceFile its reported name.
	Source     string
	SourceFile string
	// Module, when non-nil, bypasses the frontend and optimizes this
	// pre-built host module (e.g. parsed from textual IR).
	Module *ir.Module
	// Frontend options (dialect, model, views).
	Frontend minic.Options
	// OptLevel: 0 (frontend output only), 1, or 3 (default 3).
	OptLevel int
	// StopAfter, when positive, truncates the pass pipeline to its
	// first StopAfter pass instances. The differential-testing triage
	// (internal/difftest) uses this to bisect a miscompilation to the
	// first pipeline position whose prefix diverges.
	StopAfter int
	// FullAAChain additionally enables the CFL points-to analyses.
	// Shorthand for AAChain: "full"; ignored when AAChain is set.
	FullAAChain bool
	// AAChain selects the alias-analysis chain by registered chain name
	// ("default", "full") or as a comma-separated list of registered
	// analysis names in query order (aa.ChainByName). Chain order is
	// output-affecting — the first definitive answer wins — so the
	// canonical resolved chain is part of every persistence key. Empty
	// falls back to FullAAChain.
	AAChain string
	// DisableAnalysisCache runs the per-function analysis manager in
	// force-invalidate mode: every pass run recomputes CFG info and the
	// MemorySSA walker from scratch. The transparency tests compare this
	// reference mode against the cached default.
	DisableAnalysisCache bool
	// ORAQL, when non-nil, appends the ORAQL pass to the AA chain.
	ORAQL *oraql.Options
	// DebugPassExec and DumpOut mirror -debug-pass=Executions.
	DebugPassExec bool
	DumpOut       *bytes.Buffer
	// DiskCache, when non-nil, serves the whole compilation from a
	// persisted translation-unit artifact when one exists and persists
	// one afterwards, making repeat compilations warm-startable across
	// processes (diskcache.go). Output — exe hash, IR text, -stats,
	// timing-row order — is byte-identical warm vs cold. ORAQL-active
	// and -debug-pass compilations bypass the cache (their output
	// depends on the response sequence or is a trace); the probe driver
	// layers its own campaign-state persistence on the same store
	// instead.
	DiskCache *diskcache.Store
}

// sourceName is the file name the frontend reports for the source.
func (c Config) sourceName() string {
	if c.SourceFile != "" {
		return c.SourceFile
	}
	return c.Name + ".mc"
}

// aaChainSpec is the effective chain specifier: AAChain when set,
// otherwise the legacy FullAAChain boolean mapped to its chain name.
func (c Config) aaChainSpec() string {
	if c.AAChain != "" {
		return c.AAChain
	}
	if c.FullAAChain {
		return "full"
	}
	return "default"
}

// AAChainCanonical is the canonical resolved chain identity
// (comma-joined analysis names) for persistence keys: two configs
// share cached artifacts exactly when their resolved chains are equal,
// however they were spelled. An unresolvable spec yields a marker key;
// such configs fail compilation before anything is persisted under it.
func (c Config) AAChainCanonical() string {
	canon, err := aa.ChainSpecCanonical(c.aaChainSpec())
	if err != nil {
		return "invalid:" + c.aaChainSpec()
	}
	return canon
}

// diskConfigKey folds every output-affecting configuration knob into
// the translation-unit key. Transparent knobs (the AA query and
// analysis caches, which the transparency tests prove output-neutral)
// are deliberately excluded so their ablation modes share entries.
func (c Config) diskConfigKey() string {
	return fmt.Sprintf("opt=%d|stop=%d|chain=%s", c.OptLevel, c.StopAfter, c.AAChainCanonical())
}

// TargetStats bundles per-module compilation outputs.
type TargetStats struct {
	Module *ir.Module
	AA     *aa.Stats
	Pass   *passes.StatsRegistry
	ORAQL  *oraql.Pass // nil when ORAQL disabled
	Code   *codegen.Result
	// Timing is the per-pass execution accounting (-time-passes).
	Timing *passes.Timing
	// Analysis is the analysis manager's cache-counter snapshot.
	Analysis []analysis.Stats
	// ModuleHash and FuncHashes are sha256 identities of the pristine
	// (pre-optimization) module and each of its functions. They are set
	// exactly when the compilation can be cached as a translation unit,
	// which a persisted artifact must carry; the probe driver keys its
	// campaign state and per-query verdicts by them. Empty/nil
	// otherwise.
	ModuleHash string
	FuncHashes map[string]string
	// DiskHits counts functions served by a translation-unit artifact
	// (0 when the compilation ran).
	DiskHits int
	// StepsRun counts executed (pass, function) steps; StepsReplayed
	// counts steps a compile session replayed from its memo instead.
	StepsRun      int
	StepsReplayed int
}

// CompileResult is the outcome of compiling a benchmark configuration.
type CompileResult struct {
	Program *irinterp.Program
	Host    *TargetStats
	Device  *TargetStats // nil for host-only programs
}

// ExeHash combines the target hashes into the executable-cache key.
func (r *CompileResult) ExeHash() string {
	h := r.Host.Code.HashString()
	if r.Device != nil {
		h += ":" + r.Device.Code.HashString()
	}
	return h
}

// DiskHits sums the functions served from disk over all targets.
func (r *CompileResult) DiskHits() int {
	n := r.Host.DiskHits
	if r.Device != nil {
		n += r.Device.DiskHits
	}
	return n
}

// Steps sums the executed and the replayed (pass, function) steps
// over all targets.
func (r *CompileResult) Steps() (run, replayed int) {
	for _, t := range []*TargetStats{r.Host, r.Device} {
		if t != nil {
			run += t.StepsRun
			replayed += t.StepsReplayed
		}
	}
	return run, replayed
}

// ContentFuncHashes merges the pristine per-function content hashes of
// all targets (TargetStats.FuncHashes); nil when none were taken.
func (r *CompileResult) ContentFuncHashes() map[string]string {
	if r.Host.FuncHashes == nil {
		return nil
	}
	out := make(map[string]string, len(r.Host.FuncHashes))
	for _, t := range []*TargetStats{r.Host, r.Device} {
		if t == nil {
			continue
		}
		for k, v := range t.FuncHashes {
			out[k] = v
		}
	}
	return out
}

// ORAQLStats sums the ORAQL counters over all targets.
func (r *CompileResult) ORAQLStats() oraql.Stats {
	var s oraql.Stats
	for _, t := range []*TargetStats{r.Host, r.Device} {
		if t == nil || t.ORAQL == nil {
			continue
		}
		st := t.ORAQL.Stats()
		s.UniqueOptimistic += st.UniqueOptimistic
		s.CachedOptimistic += st.CachedOptimistic
		s.UniquePessimistic += st.UniquePessimistic
		s.CachedPessimistic += st.CachedPessimistic
	}
	return s
}

// AAStats merges the alias-analysis statistics of all targets.
func (r *CompileResult) AAStats() *aa.Stats {
	out := aa.NewStats()
	out.Merge(r.Host.AA)
	if r.Device != nil {
		out.Merge(r.Device.AA)
	}
	return out
}

// NoAliasTotal sums no-alias responses across all AA passes and targets
// (the Fig. 4 rightmost columns).
func (r *CompileResult) NoAliasTotal() int64 {
	n := r.Host.AA.NoAlias
	if r.Device != nil {
		n += r.Device.AA.NoAlias
	}
	return n
}

// Timing merges the per-pass timing of all targets (-time-passes).
func (r *CompileResult) Timing() *passes.Timing {
	out := passes.NewTiming()
	out.Merge(r.Host.Timing)
	if r.Device != nil {
		out.Merge(r.Device.Timing)
	}
	return out
}

// AnalysisStats sums the analysis-manager cache counters of all
// targets, one row per analysis in Snapshot order.
func (r *CompileResult) AnalysisStats() []analysis.Stats {
	var out []analysis.Stats
	for _, t := range []*TargetStats{r.Host, r.Device} {
		if t == nil {
			continue
		}
		for i, s := range t.Analysis {
			if i == len(out) {
				out = append(out, analysis.Stats{Key: s.Key})
			}
			out[i].Hits += s.Hits
			out[i].Misses += s.Misses
			out[i].Invalidations += s.Invalidations
		}
	}
	return out
}

// Records returns the ORAQL query records of all targets in
// compilation order. They are complete only when no step was replayed
// (see Steps): replayed queries keep no locations and are not listed.
func (r *CompileResult) Records() []*oraql.QueryRecord {
	var out []*oraql.QueryRecord
	for _, t := range []*TargetStats{r.Host, r.Device} {
		if t != nil && t.ORAQL != nil {
			out = append(out, t.ORAQL.Records()...)
		}
	}
	return out
}

// Compile runs the full compilation of a configuration.
func Compile(cfg Config) (*CompileResult, error) {
	return CompileContext(context.Background(), cfg)
}

// CompileContext is Compile with cancellation: ctx is checked before
// the frontend, between pass executions inside the pipeline, and
// before codegen, so a disconnected client or a draining server stops
// a compilation mid-pipeline instead of only between compilations.
func CompileContext(ctx context.Context, cfg Config) (*CompileResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return compileTU(ctx, cfg, func() (host, device *ir.Module, err error) {
		if cfg.Module != nil {
			return cfg.Module, nil, nil
		}
		host, device, err = minic.Compile(cfg.sourceName(), cfg.Source, cfg.Frontend)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: frontend: %w", cfg.Name, err)
		}
		return host, device, nil
	})
}

// compileTU compiles the modules that program returns through the
// translation-unit layer: a whole-compilation hit skips program, the
// AA chain, the pipeline and codegen; a miss compiles every step live
// and persists the result.
func compileTU(ctx context.Context, cfg Config, program func() (host, device *ir.Module, err error)) (*CompileResult, error) {
	// Fail unknown chain specs up front, before any cache is keyed on
	// them.
	if _, err := aa.ResolveChainNames(cfg.aaChainSpec()); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	var tuKey string
	if cfg.tuCacheable() {
		tuKey = cfg.tuKey(cfg.sourceName())
		if res, ok := loadTU(cfg, tuKey); ok {
			return res, nil
		}
	}
	host, device, err := program()
	if err != nil {
		return nil, err
	}
	res, err := compileProgram(ctx, cfg, host, device, nil, nil)
	if err != nil {
		return nil, err
	}
	if tuKey != "" {
		storeTU(cfg, tuKey, res)
	}
	return res, nil
}

// compileProgram optimizes and lowers the frontend's modules; the step
// memos are non-nil only for compile-session compilations.
func compileProgram(ctx context.Context, cfg Config, host, device *ir.Module, hostMemo, deviceMemo *passes.StepMemo) (*CompileResult, error) {
	res := &CompileResult{Program: &irinterp.Program{Host: host, Device: device}}

	// The paper's multi-target behaviour: one ORAQL option set is
	// shared by the per-target compilations, in a fixed order (host
	// first, then device), each with its own pass instance but the
	// same sequence.
	var err error
	res.Host, err = compileModule(ctx, cfg, host, hostMemo)
	if err != nil {
		return nil, err
	}
	if device != nil {
		res.Device, err = compileModule(ctx, cfg, device, deviceMemo)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

func compileModule(cctx context.Context, cfg Config, m *ir.Module, memo *passes.StepMemo) (*TargetStats, error) {
	pipe := passes.O3Pipeline()
	switch cfg.OptLevel {
	case 1:
		pipe = passes.O1Pipeline()
	case -1:
		pipe = &passes.Pipeline{} // -O0: frontend output only
	}
	if cfg.StopAfter > 0 && cfg.StopAfter < len(pipe.Passes) {
		pipe = &passes.Pipeline{Passes: pipe.Passes[:cfg.StopAfter]}
	}

	// Pristine-content identities must be taken before any pass mutates
	// the module. A persisted translation unit carries them, because a
	// warm load never sees the pristine module to recompute them.
	var moduleHash string
	var funcHashes map[string]string
	if cfg.tuCacheable() {
		moduleHash = diskcache.HashText(m.String())
		funcHashes = make(map[string]string, len(m.Funcs))
		for _, fn := range m.Funcs {
			funcHashes[fn.Name] = diskcache.HashText(fn.String())
		}
	}

	chain, err := aa.ChainByName(m, cfg.aaChainSpec())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	mgr := aa.NewManager(m, chain...)
	var op *oraql.Pass
	if cfg.ORAQL != nil {
		opts := *cfg.ORAQL
		if opts.Out == nil && cfg.DumpOut != nil {
			opts.Out = cfg.DumpOut
		}
		op = oraql.New(m, opts)
		if opts.Mode == oraql.ModeBlocking {
			// Section VIII design: consulted before the chain, forcing
			// may-alias for blocked queries.
			mgr.Blocker = op
		} else {
			mgr.Append(op)
		}
	}
	stats := passes.NewStats()
	ctx := &passes.Context{Module: m, AA: mgr, Stats: stats, Ctx: cctx,
		Timing:               passes.NewTiming(),
		DisableAnalysisCache: cfg.DisableAnalysisCache,
		DebugPassExec:        cfg.DebugPassExec}
	if cfg.DumpOut != nil {
		ctx.Out = cfg.DumpOut
	}
	if memo != nil && op != nil {
		ctx.Steps = memo.Plan(op)
	}
	pipe.Run(ctx)
	if err := cctx.Err(); err != nil {
		// The pipeline stopped early: surface the cancellation instead
		// of verifying (and hashing) a half-optimized module.
		return nil, fmt.Errorf("%s: %s: %w", cfg.Name, m.Name, err)
	}
	if ctx.Steps != nil && ctx.Steps.Failed() {
		return nil, errLineage
	}
	if err := verifyOptimized(m, ctx.Steps); err != nil {
		return nil, fmt.Errorf("%s: post-optimization verification of %s: %w", cfg.Name, m.Name, err)
	}
	var code *codegen.Result
	if ctx.Steps != nil {
		// A session compilation lowers only the functions whose final
		// body no earlier compilation lowered.
		code = codegen.Assemble(m, func(fi int, f *ir.Func, ti codegen.TargetInfo) *codegen.Lowered {
			return ctx.Steps.Lowered(fi, func() *codegen.Lowered { return codegen.Lower(f, ti) })
		})
	} else {
		code = codegen.Compile(m)
	}
	stats.Add("asm printer", "# machine instructions generated", int64(code.MachineInstrs))
	stats.Add("register allocation", "# register spills inserted", int64(code.Spills))
	return &TargetStats{Module: m, AA: mgr.Stats(), Pass: stats, ORAQL: op, Code: code,
		Timing: ctx.Timing, Analysis: ctx.Analyses().Snapshot(),
		ModuleHash: moduleHash, FuncHashes: funcHashes,
		StepsRun: ctx.StepsRun, StepsReplayed: ctx.StepsReplayed}, nil
}

// testHookVerifyFunc, when non-nil, sees every function body that
// post-optimization verification checks.
var testHookVerifyFunc func(*ir.Func)

// verifyOptimized runs ir.Verify on an optimized module. A session
// compilation (plan non-nil) skips the final bodies an earlier
// compilation of the session verified and records the ones it
// verifies.
func verifyOptimized(m *ir.Module, plan *passes.StepPlan) error {
	err := ir.VerifyExcept(m, func(fi int) bool {
		if plan != nil && plan.Verified(fi, m.Funcs[fi]) {
			return true
		}
		if testHookVerifyFunc != nil {
			testHookVerifyFunc(m.Funcs[fi])
		}
		return false
	})
	if err == nil && plan != nil {
		plan.MarkVerified(m)
	}
	return err
}
