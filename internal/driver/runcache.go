package driver

// Run replay, the runs half of the campaign set (persist.go). The
// simulated machine is deterministic: a program with the same
// executable hash produces the identical result under the same run
// options. A campaign's successful baseline and final runs therefore
// join its campaign set under their executable hashes, and a later
// campaign of the same identity replays them. That completes the
// seeded fast path for an unchanged program — test verdicts replay
// from the campaign set (engine.go), the baseline and final builds
// from their translation-unit artifacts (pipeline), and the
// interpreter runs from here, so a re-probe pays one set read and two
// artifact loads instead of compiles and simulated execution.
//
// The executable hash alone does not identify a program: the encoding
// leaves out a constant whose only use is a phi, so two programs that
// differ only there lower to one hash. The campaign set is keyed by the
// campaign identity, which holds the pristine content hashes and the
// run options; a campaign without one (a baseline that prints, with
// -debug-pass, is not content-hashed) runs fresh and persists nothing.
//
// Failed runs are never persisted: their Go error values would not
// round-trip through JSON, and they are not on the seeded fast path —
// a baseline or final run that fails aborts the campaign.

import (
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// run executes a compiled program, replaying the run the campaign set
// holds for its executable hash.
func (st *state) run(cr *pipeline.CompileResult) (*irinterp.Result, error) {
	if st.camp == nil {
		return st.runFresh(cr)
	}
	exe := cr.ExeHash()
	if rr := st.camp.Runs[exe]; rr != nil {
		st.res.RunsReplayed++
		return rr, nil
	}
	rr, err := st.runFresh(cr)
	if err == nil && rr != nil {
		st.learned.Runs[exe] = rr
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
