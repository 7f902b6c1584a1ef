// Package campaign embeds a deliberately small script interpreter
// that drives ORAQL probing, compilation, and fuzzing campaigns from
// .oraql scripts. Scripts compose the registered extension points —
// probing strategies, AA chains, app configurations, and grammar
// profiles — with loops and conditionals, so custom campaigns (a
// reordered-AA-chain sweep, a strategy shoot-out, a fuzz run under a
// custom grammar) need no recompilation.
//
// The language is a tiny expression/statement subset: let,
// assignment, if/else, for-in, while, break/continue/return, list and
// map literals, `fn` function literals (closures, so strategy
// callbacks can be handed to register_strategy), and calls into host
// bindings. There are no imports and no I/O beyond print — the
// sandbox is structural. Execution is bounded by an instruction
// budget, a call-depth limit, and an optional wall-clock timeout, and
// honors context cancellation, so untrusted scripts (POST
// /v1/campaign) can at worst burn their own budget.
//
// Determinism contract: every binding funnels into the same driver,
// pipeline, and difftest entry points the CLIs use, so a scripted
// campaign reproduces the compiled-in equivalent byte-for-byte —
// verdicts, FinalSeq, and exe hashes — for any worker count.
package campaign

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/oraql/go-oraql/internal/diskcache"
)

// DefaultMaxSteps bounds script execution when Options.MaxSteps is
// zero. Host-binding work (compiles, probes) counts as one step; the
// budget bounds the interpreter, the Timeout bounds the host work.
const DefaultMaxSteps = 1_000_000

// Options configures one campaign run.
type Options struct {
	// Ctx cancels the campaign: the evaluator polls it and threads it
	// into every compilation, probe, and fuzz worker.
	Ctx context.Context
	// Out receives print() output and binding progress lines.
	Out io.Writer
	// Log receives host-side progress (driver and fuzz logs); nil
	// keeps them quiet even when Out is set.
	Log io.Writer
	// Workers is the default worker budget for probe/sweep/fuzz calls
	// that do not set their own (0 = the packages' own defaults).
	Workers int
	// Cache, when non-nil, backs all compilations, probes, and fuzz
	// oracles with the shared persistent store.
	Cache *diskcache.Store
	// MaxSteps bounds evaluated script nodes (0 = DefaultMaxSteps).
	MaxSteps int64
	// Timeout bounds the whole campaign's wall clock (0 = none).
	Timeout time.Duration
}

// Result is a finished campaign.
type Result struct {
	// Value is the script's top-level return value (nil when the
	// script ran off its end), in the script value model.
	Value any
	// Steps is the number of instruction-budget units consumed.
	Steps int64
}

// Builtins returns every installed binding (core + ORAQL + strategy +
// warehouse) with its one-line doc — the authoritative binding table
// for docs and tests.
func Builtins() []*Builtin {
	b := append(coreBuiltins(), oraqlBuiltins()...)
	b = append(b, strategyBuiltins()...)
	return append(b, warehouseBuiltins()...)
}

// Run parses and executes one campaign script.
func Run(src string, opts Options) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	globals := &env{vars: map[string]any{}}
	for _, b := range Builtins() {
		globals.vars[b.Name] = b
	}
	in := &interp{ctx: ctx, opts: &opts, globals: globals, maxSteps: maxSteps}

	res := &Result{}
	err = in.execBlock(prog, globals)
	res.Steps = in.steps
	switch err := err.(type) {
	case nil:
		return res, nil
	case returnErr:
		res.Value = err.val
		return res, nil
	case breakErr:
		return nil, scriptErr(err.line, "break outside a loop")
	case continueErr:
		return nil, scriptErr(err.line, "continue outside a loop")
	default:
		parentCancelled := opts.Ctx != nil && opts.Ctx.Err() != nil
		if ctx.Err() != nil && opts.Timeout > 0 && !parentCancelled {
			return nil, fmt.Errorf("campaign: wall-clock limit (%s) exceeded", opts.Timeout)
		}
		return nil, err
	}
}
