package pipeline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
)

// errLineage reports that a re-executed step asked a different query
// than its recorded transcript: the session's reuse is unsound for
// this program and the compilation must be redone cold.
var errLineage = errors.New("pipeline: step transcript mismatch")

// Session compiles one configuration many times with different ORAQL
// response sequences — the test compilations of a probe campaign. It
// runs the frontend once and replays every (pass, function) step whose
// recorded ORAQL transcript still fits the sequence (passes/steps.go).
// Test compilations share IR instead of copying it: each starts from a
// shell of the pristine modules, whose function slots point at the
// pristine bodies, copies a function only at its first live step, and
// takes a function replayed to the end as the final body a step node
// stores. A live function's body becomes its node's final body, frozen
// from then on. The test programs share one interpreter code cache
// (irinterp.Program.Code), so a body is decoded once per campaign.
//
// A session compilation gives the same executable hash, ORAQL counters
// and pass statistics (-stats) as CompileContext. Its AA-query,
// analysis-cache and timing counters cover only the steps it ran, and
// its query records are complete only when it replayed no step, which
// always holds for a session's first compilation.
//
// Compilations that dump anything (ORAQL Dump, DebugPass) are
// compiled cold, as are configurations without ORAQL. When a
// re-executed step breaks the lineage invariant the compilation is
// redone cold and counted (Fallbacks), and the session compiles cold
// from then on.
//
// CompileLive compiles from a clone of the pristine modules with every
// step live and no memo — the probe driver's baseline and final
// compiles — so a campaign runs the frontend once. A compilation that
// replayed no step is exact, so Adopt lets it stand for CompileLive's:
// a fully optimistic campaign's final is its optimistic test's build.
//
// A Session is safe for concurrent use: its pristine modules and the
// final bodies are read-only, and its step memos and code cache
// publish under their own locks.
type Session struct {
	cfg Config

	once       sync.Once
	err        error
	host       *ir.Module // pristine; shared by every compilation
	device     *ir.Module
	hostMemo   *passes.StepMemo
	deviceMemo *passes.StepMemo
	code       *irinterp.CodeCache // decoded bodies of the test programs

	fallbacks atomic.Int64
	broken    atomic.Bool
}

// NewSession returns a session for cfg, whose ORAQL options (less the
// sequence, which each compilation supplies) stay fixed. The frontend
// runs on the first compilation.
func NewSession(cfg Config) *Session { return &Session{cfg: cfg} }

// Fallbacks counts compilations redone cold after a transcript
// mismatch.
func (s *Session) Fallbacks() int { return int(s.fallbacks.Load()) }

// reusable reports whether the configuration may reuse steps at all.
func (s *Session) reusable() bool { return s.cfg.ORAQL != nil && !s.cfg.Dumps() }

// Compile compiles the session's configuration with response sequence
// seq. The result's modules share function bodies with the session and
// with other results, so they are read-only once Compile returns.
// Only the probe engine consumes them, through verify, codegen and the
// interpreter, and all three only read. After Release, a compilation
// runs every step live on a clone of its own.
func (s *Session) Compile(ctx context.Context, seq oraql.Seq) (*CompileResult, error) {
	cfg := s.cfg
	if cfg.ORAQL != nil {
		opts := *cfg.ORAQL
		opts.Seq = seq
		cfg.ORAQL = &opts
	}
	if !s.reusable() {
		return CompileContext(ctx, cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.once.Do(s.start)
	if s.err != nil {
		return nil, s.err
	}
	if !s.broken.Load() {
		hostMemo, deviceMemo, code := s.hostMemo, s.deviceMemo, s.code
		var host, device *ir.Module
		if hostMemo != nil {
			host, device = shell(s.host), shell(s.device)
		} else {
			// Released: with no plan to copy bodies before passes
			// write them, the compilation needs modules of its own.
			host, device = s.clone()
		}
		res, err := compileProgram(ctx, cfg, host, device, hostMemo, deviceMemo)
		if err == nil {
			res.Program.Code = code
		}
		if !errors.Is(err, errLineage) {
			return res, err
		}
		s.broken.Store(true)
		s.fallbacks.Add(1)
	}
	return CompileContext(ctx, cfg)
}

// CompileLive compiles the session's configuration with ORAQL options
// opts (nil disables the pass) from a clone of the pristine modules,
// running every step live and consulting no memo. Its result is
// CompileContext's, query records and every counter included,
// translation-unit artifact included: a hit serves it before the
// frontend runs. The probe driver calls it for the baseline and for a
// final that no adopted build (Adopt) stands for.
func (s *Session) CompileLive(ctx context.Context, opts *oraql.Options) (*CompileResult, error) {
	cfg := s.cfg
	cfg.ORAQL = opts
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return compileTU(ctx, cfg, func() (host, device *ir.Module, err error) {
		s.once.Do(s.start)
		if s.err != nil {
			return nil, nil, s.err
		}
		host, device = s.clone()
		return host, device, nil
	})
}

// Adopt lets cr, a compilation of the session's configuration with
// ORAQL options opts that replayed no step, stand for
// CompileLive(opts), and files it as CompileLive would have: under its
// translation-unit key when the configuration is cacheable
// (tuCacheable, storeTU). Such a compilation has CompileLive's output,
// query records and every counter included; the probe driver adopts
// its fully optimistic test's build as the final. Adopt refuses,
// filing nothing, when the configuration prints, since only a
// compilation that runs can print.
func (s *Session) Adopt(opts *oraql.Options, cr *CompileResult) bool {
	cfg := s.cfg
	cfg.ORAQL = opts
	if cfg.Dumps() {
		return false
	}
	if cfg.tuCacheable() {
		storeTU(cfg, cfg.tuKey(cfg.sourceName()), cr)
	}
	return true
}

// Release drops the step memos, which hold every test compilation's
// transcripts, final bodies and lowerings, and the test programs' code
// cache. Later compilations run every step live on modules of their
// own. It must not run concurrently with another call.
func (s *Session) Release() {
	s.hostMemo, s.deviceMemo, s.code = nil, nil, nil
}

// start runs the frontend (or copies the pre-built module) and sets up
// one step memo per target.
func (s *Session) start() {
	cfg := s.cfg
	if _, err := aa.ResolveChainNames(cfg.aaChainSpec()); err != nil {
		s.err = fmt.Errorf("%s: %w", cfg.Name, err)
		return
	}
	if cfg.Module != nil {
		// The caller owns the module; keep a pristine copy of our own.
		s.host = cfg.Module.Clone()
	} else {
		var err error
		s.host, s.device, err = minic.Compile(cfg.sourceName(), cfg.Source, cfg.Frontend)
		if err != nil {
			s.err = fmt.Errorf("%s: frontend: %w", cfg.Name, err)
			return
		}
	}
	s.hostMemo = passes.NewStepMemo(s.host)
	if s.device != nil {
		s.deviceMemo = passes.NewStepMemo(s.device)
	}
	s.code = &irinterp.CodeCache{}
}

// clone copies the pristine program; clones share the pristine
// globals, so the device half keeps sharing the host half's.
func (s *Session) clone() (host, device *ir.Module) {
	host = s.host.Clone()
	if s.device != nil {
		device = s.device.Clone()
	}
	return host, device
}

// shell returns a module that lists m's globals and TBAA tree and
// whose function slots point at m's bodies: a test compilation's
// starting point, whose step plan copies a body before any pass writes
// it (passes.StepMemo.Plan). nil for nil.
func shell(m *ir.Module) *ir.Module {
	if m == nil {
		return nil
	}
	return &ir.Module{
		Name:    m.Name,
		Target:  m.Target,
		Globals: slices.Clone(m.Globals),
		Funcs:   slices.Clone(m.Funcs),
		TBAA:    m.TBAA,
	}
}
