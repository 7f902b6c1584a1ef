package aa

// Registry-driven chain construction: every analysis registers a named
// constructor, and chains are registered *orders* over those names.
// DefaultChain/FullChain remain as convenience wrappers, but the
// registry is authoritative — the pipeline, the campaign script
// engine, and the CLIs all resolve chains through ChainByName, so a
// reordered or truncated chain is a name (or a comma list), not a code
// change.

import (
	"fmt"
	"strings"

	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/registry"
)

// Constructor builds one analysis instance over a module. Analyses
// that need no module state ignore the argument.
//
// An analysis that keeps per-value state must key it clone-stably. A
// compile session builds the chain of each test compilation from the
// pristine function bodies it shares, while the passes query values
// of their own copies of those bodies, so an instruction or argument
// keyed by pointer would not be recognised. Key them by VID, which
// ir.Func.CloneInto keeps; globals, the TBAA tree and constants are
// shared by every copy, so their identity is stable too. valueKey
// does this for the CFL analyses.
type Constructor func(m *ir.Module) Analysis

// valueKey identifies a value clone-stably, as module analyses must
// (Constructor): an instruction, argument or global by its VID, which
// ir.Module.Clone and ir.Func.CloneInto keep, and a constant, which
// clones share, by identity.
type valueKey struct {
	vid int64
	c   *ir.Const
}

// keyOf returns v's key. An instruction outside any function, or an
// argument of none, has no VID of its own and no key: it stays
// unknown, as a value the analysis never saw.
func keyOf(v ir.Value) (valueKey, bool) {
	switch x := v.(type) {
	case *ir.Const:
		return valueKey{c: x}, true
	case *ir.Instr:
		if x.Parent == nil || x.Parent.Parent == nil {
			return valueKey{}, false
		}
	case *ir.Arg:
		if x.Func == nil {
			return valueKey{}, false
		}
	case nil:
		return valueKey{}, false
	}
	return valueKey{vid: v.VID()}, true
}

// Analysis names use the Analysis.Name() spellings, so -stats
// attribution, Fig. 4 columns, and registry lookups agree.
const (
	NameBasic    = "basic-aa"
	NameScoped   = "scoped-noalias"
	NameTBAA     = "tbaa"
	NameArgAttr  = "argattr-aa"
	NameGlobals  = "globals-aa"
	NameAndersen = "cfl-anders-aa"
	NameSteens   = "cfl-steens-aa"
)

// defaultChainNames is the -O3 default order (mirroring LLVM);
// fullChainNames appends the two CFL points-to analyses.
var defaultChainNames = []string{NameBasic, NameScoped, NameTBAA, NameArgAttr, NameGlobals}
var fullChainNames = append(append([]string(nil), defaultChainNames...), NameAndersen, NameSteens)

func init() {
	for _, a := range []struct {
		name, desc string
		build      Constructor
	}{
		{NameBasic, "stateless local reasoning: identified objects, offsets, arguments", func(*ir.Module) Analysis { return NewBasicAA() }},
		{NameScoped, "noalias-scope metadata (restrict lowering)", func(*ir.Module) Analysis { return NewScopedNoAliasAA() }},
		{NameTBAA, "type-based aliasing from the frontend's TBAA tree", func(m *ir.Module) Analysis { return NewTypeBasedAA(m) }},
		{NameArgAttr, "noalias/readonly argument attributes", func(*ir.Module) Analysis { return NewArgAttrAA() }},
		{NameGlobals, "module-level facts about address-taken globals", func(m *ir.Module) Analysis { return NewGlobalsAA(m) }},
		{NameAndersen, "inclusion-based (Andersen) CFL points-to, off by default", func(m *ir.Module) Analysis { return NewAndersenAA(m) }},
		{NameSteens, "unification-based (Steensgaard) CFL points-to, off by default", func(m *ir.Module) Analysis { return NewSteensgaardAA(m) }},
	} {
		registry.AAAnalyses.Register(registry.Entry{
			Name:        a.name,
			Description: a.desc,
			Value:       a.build,
		})
	}
	registry.AAChains.Register(registry.Entry{
		Name:        "default",
		Description: "the -O3 default: " + strings.Join(defaultChainNames, ", "),
		Value:       defaultChainNames,
	})
	registry.AAChains.Register(registry.Entry{
		Name:        "full",
		Description: "default plus the CFL points-to analyses (all seven of LLVM 14)",
		Value:       fullChainNames,
	})
}

// ResolveChainNames canonicalizes a chain specifier: a registered
// chain name ("default", "full"), a comma-separated list of analysis
// names (a custom order), or "" (the default chain). The returned list
// is the canonical identity used in disk-cache keys.
func ResolveChainNames(spec string) ([]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		spec = "default"
	}
	if e, ok := registry.AAChains.Lookup(spec); ok {
		return append([]string(nil), e.Value.([]string)...), nil
	}
	var names []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, ok := registry.AAAnalyses.Lookup(name); !ok {
			return nil, fmt.Errorf("aa: unknown analysis %q in chain %q (known: %s)",
				name, spec, strings.Join(registry.AAAnalyses.Names(), ", "))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("aa: empty chain %q", spec)
	}
	return names, nil
}

// ChainSpecCanonical renders the canonical comma-joined identity of a
// chain specifier (for cache keys); errors mirror ResolveChainNames.
func ChainSpecCanonical(spec string) (string, error) {
	names, err := ResolveChainNames(spec)
	if err != nil {
		return "", err
	}
	return strings.Join(names, ","), nil
}

// ChainByName builds the analysis instances for a chain specifier in
// order (see ResolveChainNames for the accepted forms).
func ChainByName(m *ir.Module, spec string) ([]Analysis, error) {
	names, err := ResolveChainNames(spec)
	if err != nil {
		return nil, err
	}
	return buildChain(m, names), nil
}

func buildChain(m *ir.Module, names []string) []Analysis {
	out := make([]Analysis, len(names))
	for i, name := range names {
		e, ok := registry.AAAnalyses.Lookup(name)
		if !ok {
			// Registered chains only reference registered analyses; a
			// miss here is a registration bug, not user input.
			panic(fmt.Sprintf("aa: chain references unregistered analysis %q", name))
		}
		out[i] = e.Value.(Constructor)(m)
	}
	return out
}
