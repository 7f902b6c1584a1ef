package driver

// The run-replay layer of the persistent campaign state. The simulated
// machine is deterministic: a program with the same executable hash
// produces the identical result under the same run options. Successful
// baseline/final runs are therefore persisted in the campaign store
// and replayed across processes, which completes the seeded fast path
// for an unchanged program — test verdicts replay from the outcome
// history (engine.go), the baseline compilation from its
// translation-unit artifact (pipeline), and the interpreter runs from
// here, so a re-probe pays cache I/O instead of simulated execution.
//
// The executable hash alone does not identify a program: the encoding
// leaves out a constant whose only use is a phi, so two programs that
// differ only there lower to one hash. Run artifacts are therefore also
// keyed by the campaign's pristine content identity, the baseline
// compile's module hashes; a campaign without one (a -debug-pass
// baseline is not content-hashed) runs fresh and persists nothing.
//
// Failed runs are never persisted: their Go error values would not
// round-trip through the artifact, and they are not on the seeded fast
// path — a baseline or final run that fails aborts the campaign.

import (
	"encoding/json"
	"fmt"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// runKey derives the run-artifact key from the program's pristine
// content identity, the executable identity and every output-affecting
// run option.
func runKey(content, exeHash string, opts irinterp.Options) string {
	return diskcache.Key("run", content, exeHash, fmt.Sprintf(
		"threads=%d|ranks=%d|steps=%d|mem=%d",
		opts.NumThreads, opts.NumRanks, opts.StepLimit, opts.MemLimit))
}

// contentID is the pristine content identity of the campaign's program:
// the baseline compile's host and device module hashes, "" when it was
// not content-hashed. The baseline run passes its own compile, since
// the campaign has no baseline yet.
func (st *state) contentID(cr *pipeline.CompileResult) string {
	if st.res.Baseline != nil {
		cr = st.res.Baseline.Compile
	}
	if cr.Host.ModuleHash == "" {
		return ""
	}
	id := cr.Host.ModuleHash
	if cr.Device != nil {
		id += ":" + cr.Device.ModuleHash
	}
	return id
}

// run executes a compiled program, replaying the persisted result when
// the campaign store already holds one for this program and executable.
// A corrupt artifact degrades to a fresh run.
func (st *state) run(cr *pipeline.CompileResult) (*irinterp.Result, error) {
	content := st.contentID(cr)
	if st.spec.Cache == nil || content == "" {
		return st.runFresh(cr)
	}
	key := runKey(content, cr.ExeHash(), st.spec.Run)
	if data, ok := st.spec.Cache.Get(key); ok {
		rr := &irinterp.Result{}
		if json.Unmarshal(data, rr) == nil {
			st.res.RunsReplayed++
			return rr, nil
		}
	}
	rr, err := st.runFresh(cr)
	if err == nil && rr != nil {
		if data, jerr := json.Marshal(rr); jerr == nil {
			st.spec.Cache.Put(key, data)
		}
	}
	return rr, err
}

// runFresh executes a compiled program, unless a test of this campaign
// already ran the bit-identical binary: the final compile's binary is
// usually the one the final-round test verified. The baseline always
// runs: an overlapped fully optimistic test of the same binary holds
// its entry until the baseline has recorded the references.
func (st *state) runFresh(cr *pipeline.CompileResult) (*irinterp.Result, error) {
	if st.res.Baseline != nil {
		if ent := st.eng.ranExe(cr.ExeHash()); ent != nil {
			return ent.run, ent.runErr
		}
	}
	return irinterp.Run(cr.Program, st.spec.Run)
}
