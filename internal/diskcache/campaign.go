package diskcache

import "encoding/json"

// Campaign state: the probe driver persists two artifact families so a
// later process (or a reprobe of an edited program) can skip work.
//
//   - Test outcomes, keyed by the campaign identity plus the exact
//     response sequence: "did the program compiled under this sequence
//     pass its check?" These make a repeated campaign replay from disk.
//
//   - Per-query verdicts, keyed by the *function* content hash: the
//     set of alias queries a function asked (each identified by a
//     stable descriptor, not a sequence index), each marked with
//     whether any campaign convicted it. Functions untouched by an
//     edit keep their hash, so their verdicts seed the next bisection.
//     It is a grow-only set (set.go): each member holds what one
//     campaign learned, and a campaign that learned nothing new adds
//     nothing.

// TestOutcome is one persisted probe-test result.
type TestOutcome struct {
	OK     bool `json:"ok"`
	Unique int  `json:"unique"` // unique optimistic queries the run consumed
}

// TestOutcomeKey derives the store key for one (campaign, sequence)
// test. campaignID must capture everything that determines the test:
// program content, pipeline configuration, check command.
func TestOutcomeKey(campaignID, seq string) string {
	return Key("test", campaignID, seq)
}

// LoadTestOutcome fetches a persisted test result.
func (s *Store) LoadTestOutcome(key string) (TestOutcome, bool) {
	data, ok := s.Get(key)
	if !ok {
		return TestOutcome{}, false
	}
	var o TestOutcome
	if json.Unmarshal(data, &o) != nil {
		return TestOutcome{}, false
	}
	return o, true
}

// StoreTestOutcome persists a test result.
func (s *Store) StoreTestOutcome(key string, o TestOutcome) {
	data, err := json.Marshal(o)
	if err != nil {
		return
	}
	s.Put(key, data)
}

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
// convictions of ones it has, named by the hash of its JSON, and
// nothing when there is no news. Concurrent campaigns (same process,
// sibling serve instances, separate CLI runs) each add their own
// member, so none loses another's descriptors.
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
	data, err := json.Marshal(news)
	if err != nil {
		return
	}
	// A failed add only costs hint quality, never correctness.
	_, _ = s.AddToSet(funcVerdictsKey(funcHash, checkID), HashText(string(data)), data)
}
