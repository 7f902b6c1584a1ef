package passes_test

import (
	"context"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// TestCorruptTranscriptFallsBackCold corrupts one recorded transcript
// so that re-executing its step meets a different pair key: the
// session must notice, recompile cold, count the fallback, and return
// exactly the cold result.
func TestCorruptTranscriptFallsBackCold(t *testing.T) {
	spec := apps.ByID("lulesh-seq").Spec()
	cfg := spec.Compile
	cfg.Name = spec.Name
	opts := spec.ORAQL
	cfg.ORAQL = &opts

	var published []oraql.Transcript
	defer passes.SetPublishHook(func(tr oraql.Transcript) { published = append(published, tr) })()
	sess := pipeline.NewSession(cfg)
	// The first compilation is fully live, so its records are exact.
	first := make(oraql.Seq, 256)
	cr, err := sess.Compile(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if _, replayed := cr.Steps(); replayed != 0 {
		t.Fatalf("first compilation replayed %d steps", replayed)
	}

	// Pick queries r0 and r of one function that are first asked in two
	// different steps. Flipping r's answer makes the function
	// re-execute r0's step, whose key we rename consistently in every
	// transcript: replaying still fits, re-executing cannot.
	firstIn := func(key [2]int64) int {
		for i, tr := range published {
			for _, e := range tr {
				if e.Key == key && e.First {
					return i
				}
			}
		}
		return -1
	}
	recs := cr.Records()
	var r0, r *oraql.QueryRecord
	for i, a := range recs {
		for _, b := range recs[i+1:] {
			if b.Func == a.Func && firstIn(keyOf(a)) != firstIn(keyOf(b)) {
				r0, r = a, b
				break
			}
		}
		if r != nil {
			break
		}
	}
	if r == nil {
		t.Fatal("no function asks the responder in two different steps")
	}
	key := keyOf(r0)
	for _, tr := range published {
		for i := range tr {
			if tr[i].Key == key {
				tr[i].Key = [2]int64{-1, -1}
			}
		}
	}

	second := first.Clone()
	second[r.Index] = true
	got, err := sess.Compile(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	cold := cfg
	o := opts
	o.Seq = second
	cold.ORAQL = &o
	want, err := pipeline.Compile(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExeHash() != want.ExeHash() || got.ORAQLStats() != want.ORAQLStats() {
		t.Errorf("fallback differs from cold: %s %+v vs %s %+v",
			got.ExeHash(), got.ORAQLStats(), want.ExeHash(), want.ORAQLStats())
	}
	if _, replayed := got.Steps(); replayed != 0 {
		t.Errorf("the result replayed %d steps; want the cold compile", replayed)
	}
	if n := sess.Fallbacks(); n != 1 {
		t.Errorf("fallbacks = %d, want 1", n)
	}
}

// keyOf is the responder's pair key of a record.
func keyOf(r *oraql.QueryRecord) [2]int64 {
	x, y := r.A.Ptr.VID(), r.B.Ptr.VID()
	if x > y {
		x, y = y, x
	}
	return [2]int64{x, y}
}
