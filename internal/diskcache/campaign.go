package diskcache

import (
	"encoding/json"
	"errors"
)

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
//     The set only grows, so a campaign that learned nothing new
//     publishes nothing.

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

// funcVerdictsKey: one entry per (function content, campaign check).
// Its domain is "verdict-set", not the "verdicts" of the older
// per-descriptor tallies, so a tally entry, which would decode only in
// part, reads as a miss.
func funcVerdictsKey(funcHash, checkID string) string {
	return Key("verdict-set", funcHash, checkID)
}

// LoadFuncVerdicts fetches the verdict set for one function content
// hash (nil when none recorded).
func (s *Store) LoadFuncVerdicts(funcHash, checkID string) FuncVerdicts {
	data, _, ok := s.LoadVersioned(funcVerdictsKey(funcHash, checkID))
	if !ok {
		return nil
	}
	var v FuncVerdicts
	if json.Unmarshal(data, &v) != nil {
		return nil
	}
	return v
}

// errNoNews aborts a verdict merge that would publish the set it read.
var errNoNews = errors.New("diskcache: verdict set unchanged")

// MergeFuncVerdicts folds one campaign's observations (descriptor →
// optimistic-survived) into the persisted set through the
// version-checked compare-and-update loop, so concurrent campaigns
// (same process, sibling serve instances, separate CLI runs) never
// lose each other's descriptors. It publishes a version only when a
// descriptor is new or a seen one is convicted for the first time.
func (s *Store) MergeFuncVerdicts(funcHash, checkID string, obs map[string]bool) {
	if len(obs) == 0 {
		return
	}
	// An exhausted retry budget (pathological conflict storm or an I/O
	// fault) only costs hint quality, never correctness — drop it.
	_ = s.UpdateVersioned(funcVerdictsKey(funcHash, checkID), 0, func(old []byte) ([]byte, error) {
		var v FuncVerdicts
		if old == nil || json.Unmarshal(old, &v) != nil || v == nil {
			v = FuncVerdicts{} // absent or damaged: start from this campaign
		}
		grew := false
		for desc, optimistic := range obs {
			convicted, seen := v[desc]
			if !seen || (!optimistic && !convicted) {
				v[desc] = convicted || !optimistic
				grew = true
			}
		}
		if !grew {
			return nil, errNoNews
		}
		return json.Marshal(v)
	})
}
