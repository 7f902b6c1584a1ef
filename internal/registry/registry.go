// Package registry is the named-extension-point layer of the
// reproduction: probing strategies, alias-analysis constructors and
// chain orders, benchmark (app) configurations, and fuzz-grammar
// profiles all register here by name instead of living behind
// compiled-in enums and switch statements. Consumers — the probing
// driver, the pass pipeline, the differential fuzzer, the campaign
// script engine, the serve API, and every CLI — resolve scenarios by
// name, so a new scenario is a registration (or, through
// internal/campaign, a script file), not a core change.
//
// The package is deliberately a leaf: it imports nothing from the rest
// of the repository, and entries carry their implementation as an
// opaque value the owning package type-asserts back. What the registry
// itself understands is the introspectable surface: the name and
// one-line description, which `oraql list`, `GET /v1/registry` and the
// script introspection bindings show, and the option documentation
// that `oraql list` prints.
package registry

import (
	"fmt"
	"sync"
)

// Option documents one tunable of a registered entry.
type Option struct {
	// Name is the option key as scripts and wire requests spell it.
	Name string `json:"name"`
	// Type is the JSON primitive: "string", "number", "integer",
	// "boolean".
	Type string `json:"type"`
	// Description is the one-line help text.
	Description string `json:"description"`
}

// Entry is one registered implementation.
type Entry struct {
	// Name is the stable lookup key, unique within its registry.
	Name string
	// Description is the one-line summary shown by `oraql list`.
	Description string
	// Options documents the entry's tunables (may be nil).
	Options []Option
	// Value carries the implementation — a factory function, a config
	// struct — typed by the registering package and type-asserted by
	// its consumers. The registry never inspects it.
	Value any
}

// Registry is one named extension point: an ordered, concurrency-safe
// name -> Entry table with introspection.
type Registry struct {
	kind        string
	description string

	// parent, when non-nil, makes this registry an overlay: lookups
	// fall back to the parent, and listings merge parent entries first.
	// Overlays are per-run scratch views (see Overlay) and are not
	// recorded in the global registry list.
	parent *Registry

	mu     sync.RWMutex
	byName map[string]*Entry
	order  []string
}

// global is the creation-ordered list of registries, so generic
// tooling (`oraql list`, the registry endpoint) can walk
// every extension point without naming them.
var (
	globalMu sync.Mutex
	global   []*Registry
)

// New creates (and globally records) a registry for one kind of
// extension, e.g. "strategy". The description is the section header
// tooling prints above the kind's entries.
func New(kind, description string) *Registry {
	r := &Registry{kind: kind, description: description, byName: map[string]*Entry{}}
	globalMu.Lock()
	global = append(global, r)
	globalMu.Unlock()
	return r
}

// All returns every registry in creation order.
func All() []*Registry {
	globalMu.Lock()
	defer globalMu.Unlock()
	return append([]*Registry(nil), global...)
}

// Overlay returns a per-run child view of the registry: lookups that
// miss the overlay's own entries fall back to the parent, and Add
// registers into the overlay only, leaving the global table — which
// concurrent runs share — untouched. Campaign scripts register their
// script-defined strategies here, so a script's registrations live
// and die with its run and can never collide across runs.
func (r *Registry) Overlay() *Registry {
	return &Registry{kind: r.kind, description: r.description, parent: r, byName: map[string]*Entry{}}
}

// Kind returns the registry's kind label (e.g. "strategy").
func (r *Registry) Kind() string { return r.kind }

// Description returns the registry's one-line summary.
func (r *Registry) Description() string { return r.description }

// Register adds an entry. Registering an empty or duplicate name is a
// programming error (registration happens at package init) and panics.
func (r *Registry) Register(e Entry) {
	if err := r.Add(e); err != nil {
		panic(err.Error())
	}
}

// Add adds an entry, reporting empty or duplicate names as errors
// instead of panicking — the entry point for runtime registrations
// (campaign-script overlays), where a name clash is the script
// author's mistake, not a programming error. Duplicates are checked
// against the parent chain too: an overlay entry may not shadow a
// built-in.
func (r *Registry) Add(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("registry %s: entry with empty name", r.kind)
	}
	if r.parent != nil {
		if _, dup := r.parent.Lookup(e.Name); dup {
			return fmt.Errorf("registry %s: entry %q already registered", r.kind, e.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.Name]; dup {
		return fmt.Errorf("registry %s: duplicate entry %q", r.kind, e.Name)
	}
	ent := e
	r.byName[e.Name] = &ent
	r.order = append(r.order, e.Name)
	return nil
}

// Lookup returns the named entry, falling back to the parent when the
// registry is an overlay.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok && r.parent != nil {
		return r.parent.Lookup(name)
	}
	return e, ok
}

// Names returns the registered names in registration order, parent
// entries first for overlays.
func (r *Registry) Names() []string {
	var out []string
	if r.parent != nil {
		out = r.parent.Names()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(out, r.order...)
}

// Entries returns the entries in registration order, parent entries
// first for overlays.
func (r *Registry) Entries() []*Entry {
	var out []*Entry
	if r.parent != nil {
		out = r.parent.Entries()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if out == nil {
		out = make([]*Entry, 0, len(r.order))
	}
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// Len returns the number of registered entries, including the
// parent's for overlays.
func (r *Registry) Len() int {
	n := 0
	if r.parent != nil {
		n = r.parent.Len()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return n + len(r.order)
}

// The repository's extension points, in the order tooling lists them.
var (
	// Strategies holds probing bisection strategies; values are
	// driver.Strategy implementations.
	Strategies = New("strategy", "probing bisection strategies (driver)")
	// AAAnalyses holds individual alias analyses; values are
	// func(*ir.Module) aa.Analysis constructors.
	AAAnalyses = New("aa-analysis", "alias analyses available to chains")
	// AAChains holds named analysis chain orders; values are []string
	// lists of AAAnalyses names.
	AAChains = New("aa-chain", "named alias-analysis chain orders")
	// AppConfigs holds the benchmark configurations; values are
	// *apps.Config.
	AppConfigs = New("app-config", "benchmark configurations (paper Fig. 4)")
	// Grammars holds fuzz-grammar profiles; values are progen.Options
	// presets.
	Grammars = New("grammar", "program-generator grammar profiles (fuzzing)")
)
