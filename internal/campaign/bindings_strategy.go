package campaign

// Script-defined probing strategies: register_strategy(name, fn)
// registers a `fn(n)` callback into a per-run overlay of the global
// strategy registry, and the probe_* bindings expose the driver's
// Prober surface to the callback while it runs. The driver invokes
// the callback through the exact registry.Strategies path built-in
// strategies use, so a scripted strategy is selectable anywhere a
// name is — probe({strategy: ...}), sweep, POST /v1/campaign — and
// inherits the whole decision loop: budget accounting, speculation,
// padding, and verdict persistence.
//
// The Prober reaches the script through a stack, not a parameter:
// driver.Probe calls Strategy.Solve on the goroutine that called
// probe(), i.e. the interpreter's own, so pushing the Prober around
// the callback invocation is race-free, and nested probes (a strategy
// whose callback calls probe() again) see their own Prober on top.

import (
	"fmt"

	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/registry"
)

// strategyState is the per-run script-strategy state hung off the
// interpreter: the overlay registry that scopes register_strategy
// entries to this run, and the Prober stack the probe_* bindings
// read while a script strategy's callback executes.
type strategyState struct {
	overlay *registry.Registry
	probers []driver.Prober
}

// strategyReg returns the registry strategy names resolve against:
// the run's overlay once register_strategy has created it, the global
// table otherwise.
func (in *interp) strategyReg() *registry.Registry {
	if in.strat != nil && in.strat.overlay != nil {
		return in.strat.overlay
	}
	return registry.Strategies
}

// lookupStrategy resolves a strategy name against the run's overlay
// (falling back to the built-ins through the overlay's parent chain).
func (in *interp) lookupStrategy(name string) (driver.Strategy, error) {
	e, ok := in.strategyReg().Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q (known: %s)",
			name, strategyNames(in.strategyReg()))
	}
	return e.Value.(driver.Strategy), nil
}

func strategyNames(reg *registry.Registry) string {
	out := ""
	for i, n := range reg.Names() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// prober returns the Prober of the innermost executing script
// strategy, or an error outside one.
func (in *interp) prober(line int, what string) (driver.Prober, error) {
	if in.strat == nil || len(in.strat.probers) == 0 {
		return nil, scriptErr(line, "%s is only available inside a strategy function (see register_strategy)", what)
	}
	return in.strat.probers[len(in.strat.probers)-1], nil
}

// scriptStrategy adapts a script `fn(n)` callback to driver.Strategy.
// Solve pushes the Prober for the probe_* bindings, invokes the
// callback, and validates its return — a list of n booleans, the
// decided response bits.
type scriptStrategy struct {
	name string
	fn   *funcVal
	in   *interp
}

func (s *scriptStrategy) Name() string { return s.name }

func (s *scriptStrategy) Solve(p driver.Prober, n int) (oraql.Seq, error) {
	st := s.in.strat
	st.probers = append(st.probers, p)
	defer func() { st.probers = st.probers[:len(st.probers)-1] }()
	v, err := s.in.callFunc(s.fn, []any{int64(n)}, s.fn.line)
	if err != nil {
		return nil, err
	}
	seq, err := seqFromScript(s.fn.line, v)
	if err != nil {
		return nil, fmt.Errorf("strategy %q: %w", s.name, err)
	}
	if len(seq) != n {
		return nil, fmt.Errorf("strategy %q returned %d decision bits, campaign has %d queries", s.name, len(seq), n)
	}
	return seq, nil
}

// seqFromScript converts a script list of booleans into a response
// sequence.
func seqFromScript(line int, v any) (oraql.Seq, error) {
	l, ok := v.([]any)
	if !ok {
		return nil, scriptErr(line, "expected a list of booleans, got %s", typeName(v))
	}
	seq := make(oraql.Seq, len(l))
	for i, el := range l {
		b, ok := el.(bool)
		if !ok {
			return nil, scriptErr(line, "expected a list of booleans; element %d is %s", i, typeName(el))
		}
		seq[i] = b
	}
	return seq, nil
}

// seqToScript converts a response sequence into a script list.
func seqToScript(seq oraql.Seq) []any {
	out := make([]any, len(seq))
	for i, b := range seq {
		out[i] = b
	}
	return out
}

func strategyBuiltins() []*Builtin {
	return []*Builtin{
		{
			Name: "register_strategy",
			Doc:  "register_strategy(name, fn) — register fn(n) as a probing strategy for this run; it must return the n decided bits and may call the probe_* bindings",
			Fn: func(in *interp, line int, args []any) (any, error) {
				if len(args) != 2 {
					return nil, scriptErr(line, "register_strategy needs a name and a function, got %d argument(s)", len(args))
				}
				name, ok := args[0].(string)
				if !ok {
					return nil, scriptErr(line, "register_strategy: name must be a string, got %s", typeName(args[0]))
				}
				fn, ok := args[1].(*funcVal)
				if !ok {
					return nil, scriptErr(line, "register_strategy: second argument must be a function, got %s", typeName(args[1]))
				}
				if len(fn.params) != 1 {
					return nil, scriptErr(line, "register_strategy: the strategy function must take exactly one parameter (the query count), has %d", len(fn.params))
				}
				if in.strat == nil {
					in.strat = &strategyState{}
				}
				if in.strat.overlay == nil {
					in.strat.overlay = registry.Strategies.Overlay()
				}
				err := in.strat.overlay.Add(registry.Entry{
					Name:        name,
					Description: "script-defined strategy (this campaign run)",
					Value:       &scriptStrategy{name: name, fn: fn, in: in},
				})
				if err != nil {
					return nil, scriptErr(line, "register_strategy: %v", err)
				}
				return nil, nil
			},
		},
		{
			Name: "probe_test",
			Doc:  "probe_test(seq, specs...) — verify a candidate bit list against the running probe; extra lists are speculative prefetches; returns true on success",
			Fn: func(in *interp, line int, args []any) (any, error) {
				p, err := in.prober(line, "probe_test")
				if err != nil {
					return nil, err
				}
				if len(args) < 1 {
					return nil, scriptErr(line, "probe_test needs a candidate bit list")
				}
				seq, err := seqFromScript(line, args[0])
				if err != nil {
					return nil, err
				}
				specs := make([]oraql.Seq, 0, len(args)-1)
				for _, a := range args[1:] {
					s, err := seqFromScript(line, a)
					if err != nil {
						return nil, err
					}
					specs = append(specs, s)
				}
				ok, err := p.Test(seq, specs...)
				if err != nil {
					return nil, err
				}
				return ok, nil
			},
		},
		{
			Name: "probe_pad",
			Doc:  "probe_pad(seq) — extend a decided prefix with the driver's pessimistic padding; returns the padded bit list",
			Fn: func(in *interp, line int, args []any) (any, error) {
				p, err := in.prober(line, "probe_pad")
				if err != nil {
					return nil, err
				}
				if len(args) != 1 {
					return nil, scriptErr(line, "probe_pad needs exactly 1 argument, got %d", len(args))
				}
				seq, err := seqFromScript(line, args[0])
				if err != nil {
					return nil, err
				}
				return seqToScript(p.Pad(seq)), nil
			},
		},
		{
			Name: "probe_workers",
			Doc:  "probe_workers() — the running probe's speculation budget (1 = strictly sequential)",
			Fn: func(in *interp, line int, args []any) (any, error) {
				p, err := in.prober(line, "probe_workers")
				if err != nil {
					return nil, err
				}
				if len(args) != 0 {
					return nil, scriptErr(line, "probe_workers takes no arguments")
				}
				return int64(p.Workers()), nil
			},
		},
	}
}
