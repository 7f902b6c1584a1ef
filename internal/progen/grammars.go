package progen

// Grammar profiles are registered Options presets: named subsets of
// the generator's grammar that the fuzzing layers (`oraql fuzz`,
// /v1/fuzz, campaign scripts) select by name. A new profile is a
// registration, not a difftest change.

import (
	"fmt"
	"strings"

	"github.com/oraql/go-oraql/internal/registry"
)

// DefaultGrammar is the profile an empty grammar name selects.
const DefaultGrammar = "default"

// stmtsOption documents the per-profile statement-count override.
var stmtsOption = registry.Option{
	Name: "stmts", Type: "integer",
	Description: "top-level statements per generated program (0 = generator default)",
}

func init() {
	for _, g := range []struct {
		name, desc string
		opts       Options
	}{
		{DefaultGrammar, "the full grammar: calls, structs/TBAA, pointer views, parallel regions", Options{}},
		{"scalar", "straight-line scalar code and loops only (no calls, structs, pointers, parallel)",
			Options{DisableCalls: true, DisableStructs: true, DisablePointers: true, DisableParallel: true}},
		{"no-pointers", "full grammar minus heap arrays and offset pointer views (no controlled aliasing)",
			Options{DisablePointers: true}},
		{"sequential", "full grammar minus parallel-for regions", Options{DisableParallel: true}},
		{"parallel-heavy", "full grammar with at least two parallel-for regions per program", Options{MinParallel: 2}},
	} {
		registry.Grammars.Register(registry.Entry{
			Name:        g.name,
			Description: g.desc,
			Options:     []registry.Option{stmtsOption},
			Value:       g.opts,
		})
	}
}

// GrammarByName resolves a registered grammar profile to its Options
// preset; stmts (when positive) overrides the profile's statement
// count.
func GrammarByName(name string, stmts int) (Options, error) {
	if name == "" {
		name = DefaultGrammar
	}
	e, ok := registry.Grammars.Lookup(name)
	if !ok {
		return Options{}, fmt.Errorf("progen: unknown grammar profile %q (known: %s)",
			name, strings.Join(registry.Grammars.Names(), ", "))
	}
	opts := e.Value.(Options)
	if stmts > 0 {
		opts.Stmts = stmts
	}
	return opts, nil
}
