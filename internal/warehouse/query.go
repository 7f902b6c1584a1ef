package warehouse

import (
	"encoding/json"
	"sort"

	"github.com/oraql/go-oraql/internal/diskcache"
)

// QueryOptions filters and groups the corpus. Empty filters match
// everything; By selects the grouping dimension.
type QueryOptions struct {
	Kind    string `json:"kind,omitempty"`    // probe | fuzz | triage
	App     string `json:"app,omitempty"`     // app config name
	Grammar string `json:"grammar,omitempty"` // grammar profile
	By      string `json:"by,omitempty"`      // pass | shape | func | grammar (default pass)
}

// Recurrence is one row of a cross-campaign query: a grouping key with
// how widely it recurs. Apps is the sorted set of distinct app configs
// the key appeared in — the "recurs across apps" signal.
type Recurrence struct {
	Key     string   `json:"key"`
	Apps    []string `json:"apps,omitempty"`
	Records int      `json:"records"`
	Opt     int64    `json:"opt,omitempty"`
	Pess    int64    `json:"pess,omitempty"`
}

func (m *Manifest) match(s *Summary, o QueryOptions) bool {
	if o.Kind != "" && s.Kind != o.Kind {
		return false
	}
	if o.App != "" && s.App != o.App {
		return false
	}
	if o.Grammar != "" && s.Grammar != o.Grammar {
		return false
	}
	return true
}

// Query aggregates the matching summaries along the By dimension.
// Rows sort by breadth (distinct apps desc, then records desc, then
// key asc), so the first row answers "what recurs most widely?".
func (m *Manifest) Query(o QueryOptions) []Recurrence {
	type agg struct {
		apps    map[string]bool
		records int
		opt     int64
		pess    int64
	}
	groups := map[string]*agg{}
	bump := func(key, app string, opt, pess int64) {
		if key == "" {
			return
		}
		g := groups[key]
		if g == nil {
			g = &agg{apps: map[string]bool{}}
			groups[key] = g
		}
		if app != "" {
			g.apps[app] = true
		}
		g.records++
		g.opt += opt
		g.pess += pess
	}
	for _, s := range m.Summaries() {
		if !m.match(s, o) {
			continue
		}
		switch o.By {
		case "shape":
			for _, shape := range s.Shapes {
				c := s.ShapeCounts[shape]
				bump(shape, s.App, c.Optimistic, c.Pessimistic)
			}
		case "func":
			for _, h := range s.FuncHashes {
				bump(h, s.App, 0, 0)
			}
		case "grammar":
			opt, pess := shapeTotals(s.ShapeCounts)
			bump(s.Grammar, s.App, opt, pess)
		default: // "pass"
			for _, p := range s.Passes {
				bump(p, s.App, 0, 0)
			}
		}
	}
	out := make([]Recurrence, 0, len(groups))
	for key, g := range groups {
		out = append(out, Recurrence{
			Key: key, Apps: sortedSet(g.apps), Records: g.records,
			Opt: g.opt, Pess: g.pess,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Apps) != len(out[j].Apps) {
			return len(out[i].Apps) > len(out[j].Apps)
		}
		if out[i].Records != out[j].Records {
			return out[i].Records > out[j].Records
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func shapeTotals(counts map[string]diskcache.VerdictCounts) (opt, pess int64) {
	for _, c := range counts {
		opt += c.Optimistic
		pess += c.Pessimistic
	}
	return
}

// Stats is the corpus overview served by `oraql warehouse stats` and
// GET /v1/warehouse.
type Stats struct {
	Records   int   `json:"records"`
	Probes    int   `json:"probes"`
	Fuzz      int   `json:"fuzz"`
	Triage    int   `json:"triage"`
	Divergent int   `json:"divergent"`
	Apps      int   `json:"apps"`
	Passes    int   `json:"passes"`
	Shapes    int   `json:"shapes"`
	Funcs     int   `json:"funcs"`
	Opt       int64 `json:"opt"`
	Pess      int64 `json:"pess"`
}

// Stats summarizes the whole corpus.
func (m *Manifest) Stats() Stats {
	st := Stats{Records: m.Len()}
	apps := map[string]bool{}
	passes := map[string]bool{}
	shapes := map[string]bool{}
	funcs := map[string]bool{}
	for _, s := range m.Summaries() {
		switch s.Kind {
		case KindProbe:
			st.Probes++
		case KindFuzz:
			st.Fuzz++
		case KindTriage:
			st.Triage++
		}
		if s.Divergent {
			st.Divergent++
		}
		if s.App != "" {
			apps[s.App] = true
		}
		for _, p := range s.Passes {
			passes[p] = true
		}
		for shape, c := range s.ShapeCounts {
			shapes[shape] = true
			st.Opt += c.Optimistic
			st.Pess += c.Pessimistic
		}
		for _, h := range s.FuncHashes {
			funcs[h] = true
		}
	}
	st.Apps, st.Passes, st.Shapes, st.Funcs = len(apps), len(passes), len(shapes), len(funcs)
	return st
}

// DivergentSeeds returns the sorted unique generator seeds of
// divergent fuzz findings, optionally restricted to one grammar
// profile — the corpus-distillation feed for -seed-from-warehouse.
func (m *Manifest) DivergentSeeds(grammar string) []int64 {
	set := map[int64]bool{}
	for _, s := range m.Summaries() {
		if !s.Divergent {
			continue
		}
		if grammar != "" && s.Grammar != grammar {
			continue
		}
		set[s.Seed] = true
	}
	out := make([]int64, 0, len(set))
	for seed := range set {
		out = append(out, seed)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShapePriors aggregates verdict frequencies per query shape over the
// whole corpus — the fleet-wide history the CPG export annotates its
// ORAQL edges with (CPGOptions.History).
func (m *Manifest) ShapePriors() map[string]diskcache.VerdictCounts {
	out := map[string]diskcache.VerdictCounts{}
	for _, s := range m.Summaries() {
		for shape, c := range s.ShapeCounts {
			t := out[shape]
			t.Optimistic += c.Optimistic
			t.Pessimistic += c.Pessimistic
			out[shape] = t
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// MarshalRecurrences renders query rows as deterministic JSON — the
// byte-identical output surface the CLI, bindings, and service share.
func MarshalRecurrences(rows []Recurrence) ([]byte, error) {
	return json.MarshalIndent(rows, "", "  ")
}
