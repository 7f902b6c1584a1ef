package diskcache

import "encoding/json"

// Per-query verdicts: the probe driver keys one grow-only set (set.go)
// per *function* content hash and campaign check, holding the alias
// queries the function asked (each identified by a stable descriptor,
// not a sequence index), each marked with whether any campaign
// convicted it. Functions untouched by an edit keep their hash, so
// their verdicts seed the next bisection. Each member holds what one
// campaign learned, and a campaign that learned nothing new adds
// nothing. The driver's other persisted state, one campaign set per
// program and check, is a set of its own whose format lives with the
// driver; both add members through AddJSON.

// VerdictCounts accumulates how queries fared across findings; the
// warehouse keeps one per query shape.
type VerdictCounts struct {
	Optimistic  int64 `json:"opt"`  // optimistic answer survived the campaign
	Pessimistic int64 `json:"pess"` // optimistic answer was convicted (guilty)
}

// FuncVerdicts is one function's verdict set: every descriptor a
// campaign saw, mapped to whether any campaign ever convicted it.
type FuncVerdicts map[string]bool

// funcVerdictsKey names one set per (function content, campaign
// check).
func funcVerdictsKey(funcHash, checkID string) string {
	return Key("verdict-set", funcHash, checkID)
}

// LoadFuncVerdicts returns the verdict set for one function content
// hash, the union of its members (nil when none recorded). A
// descriptor is convicted when any member convicts it; a member that
// does not decode is skipped.
func (s *Store) LoadFuncVerdicts(funcHash, checkID string) FuncVerdicts {
	var v FuncVerdicts
	for _, data := range s.SetMembers(funcVerdictsKey(funcHash, checkID)) {
		var m FuncVerdicts
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		if v == nil {
			v = FuncVerdicts{}
		}
		for desc, convicted := range m {
			v[desc] = v[desc] || convicted
		}
	}
	return v
}

// MergeFuncVerdicts folds one campaign's observations (descriptor →
// optimistic-survived) into the persisted set. It adds one member that
// holds only the news, the descriptors the set lacks and the first
// convictions of ones it has, and nothing when there is no news.
// Concurrent campaigns (same process, sibling serve instances,
// separate CLI runs) each add their own member, so none loses
// another's descriptors.
func (s *Store) MergeFuncVerdicts(funcHash, checkID string, obs map[string]bool) {
	if len(obs) == 0 {
		return
	}
	have := s.LoadFuncVerdicts(funcHash, checkID)
	news := FuncVerdicts{}
	for desc, optimistic := range obs {
		convicted, seen := have[desc]
		if !seen || (!optimistic && !convicted) {
			news[desc] = !optimistic
		}
	}
	if len(news) == 0 {
		return
	}
	// A failed add only costs hint quality, never correctness.
	_ = s.AddJSON(funcVerdictsKey(funcHash, checkID), news)
}
