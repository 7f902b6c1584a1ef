package oraql

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
)

func TestParseSeq(t *testing.T) {
	seq, err := ParseSeq("1 0 1 1 0")
	if err != nil {
		t.Fatal(err)
	}
	want := Seq{true, false, true, true, false}
	if len(seq) != len(want) {
		t.Fatalf("len = %d", len(seq))
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq[%d] = %v", i, seq[i])
		}
	}
	if _, err := ParseSeq("1 2"); err == nil {
		t.Error("invalid element must error")
	}
	empty, err := ParseSeq("")
	if err != nil || len(empty) != 0 {
		t.Error("empty sequence must parse to nil")
	}
	// A response-file argument is text like any other: ParseSeq reads
	// no file (`oraql opt` expands @file itself).
	path := filepath.Join(t.TempDir(), "seq.txt")
	if err := os.WriteFile(path, []byte("0 1 0"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSeq("@" + path); err == nil || strings.Contains(err.Error(), "0 1 0") {
		t.Errorf("ParseSeq(@file) = %v, want an invalid-element error", err)
	}
}

// Property: String/ParseSeq round-trip.
func TestSeqRoundTripProperty(t *testing.T) {
	f := func(bits []bool) bool {
		s := Seq(bits)
		back, err := ParseSeq(s.String())
		if err != nil || len(back) != len(s) {
			return false
		}
		for i := range s {
			if back[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqCountPessimistic(t *testing.T) {
	s := Seq{true, false, false, true}
	if s.CountPessimistic() != 2 {
		t.Error("CountPessimistic")
	}
	if s.Clone().CountPessimistic() != 2 {
		t.Error("Clone must preserve contents")
	}
}

// queryEnv builds a module with pointer values to query.
type queryEnv struct {
	m    *ir.Module
	fn   *ir.Func
	ptrs []ir.Value
}

func newQueryEnv(t testing.TB, n int) *queryEnv {
	m := ir.NewModule("t")
	fn, b := ir.NewFunc(m, "f", ir.Void)
	env := &queryEnv{m: m, fn: fn}
	for i := 0; i < n; i++ {
		env.ptrs = append(env.ptrs, b.Alloca(8, "x"))
	}
	b.Ret(nil)
	return env
}

func (e *queryEnv) loc(i int) aa.MemLoc {
	return aa.MemLoc{Ptr: e.ptrs[i], Size: aa.PreciseSize(8)}
}

func (e *queryEnv) locSized(i int, sz int64) aa.MemLoc {
	return aa.MemLoc{Ptr: e.ptrs[i], Size: aa.PreciseSize(sz)}
}

func TestSequenceConsumption(t *testing.T) {
	env := newQueryEnv(t, 3)
	p := New(env.m, Options{Seq: Seq{false, true}})
	q := &aa.QueryCtx{Pass: "GVN", Func: env.fn}
	if r := p.Alias(env.loc(0), env.loc(1), q); r != aa.MayAlias {
		t.Error("first query must follow seq[0]=0 (pessimistic)")
	}
	if r := p.Alias(env.loc(0), env.loc(2), q); r != aa.NoAlias {
		t.Error("second query must follow seq[1]=1")
	}
	// Sequence exhausted: optimistic.
	if r := p.Alias(env.loc(1), env.loc(2), q); r != aa.NoAlias {
		t.Error("beyond-sequence queries must be optimistic")
	}
	s := p.Stats()
	if s.UniqueOptimistic != 2 || s.UniquePessimistic != 1 || s.Cached() != 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestCacheIgnoresLocationSizeAndOrder(t *testing.T) {
	env := newQueryEnv(t, 2)
	p := New(env.m, Options{Seq: Seq{false}})
	if r := p.Alias(env.locSized(0, 8), env.locSized(1, 8), nil); r != aa.MayAlias {
		t.Fatal("first answer should be pessimistic")
	}
	// Same pair, swapped order and different sizes: served from cache.
	if r := p.Alias(env.locSized(1, 16), env.locSized(0, 4), nil); r != aa.MayAlias {
		t.Error("cached answer must be consistent regardless of sizes/order")
	}
	s := p.Stats()
	if s.Unique() != 1 || s.CachedPessimistic != 1 {
		t.Errorf("stats: %+v", s)
	}
	if p.Records()[0].CacheHits != 1 {
		t.Error("record must count cache hits")
	}
}

func TestEmptySequenceIsFullyOptimistic(t *testing.T) {
	env := newQueryEnv(t, 4)
	p := New(env.m, Options{})
	for i := 0; i < 3; i++ {
		if r := p.Alias(env.loc(i), env.loc(i+1), nil); r != aa.NoAlias {
			t.Fatal("empty sequence must answer everything optimistically")
		}
	}
	if p.Stats().UniquePessimistic != 0 {
		t.Error("no pessimistic answers expected")
	}
}

func TestTargetFilter(t *testing.T) {
	env := newQueryEnv(t, 2)
	env.m.Target = "x86_64"
	p := New(env.m, Options{Target: "gpu"})
	if r := p.Alias(env.loc(0), env.loc(1), nil); r != aa.MayAlias {
		t.Error("pass must stay inactive for non-matching targets")
	}
	if p.Stats().Unique() != 0 {
		t.Error("inactive pass must not consume the sequence")
	}
	env.m.Target = "gpu-sim"
	p2 := New(env.m, Options{Target: "gpu"})
	if r := p2.Alias(env.loc(0), env.loc(1), nil); r != aa.NoAlias {
		t.Error("pass must be active for matching targets")
	}
}

func TestFuncFilter(t *testing.T) {
	env := newQueryEnv(t, 2)
	p := New(env.m, Options{Funcs: []string{"other"}})
	q := &aa.QueryCtx{Pass: "GVN", Func: env.fn}
	if r := p.Alias(env.loc(0), env.loc(1), q); r != aa.MayAlias {
		t.Error("queries outside the function filter must stay may-alias")
	}
	p2 := New(env.m, Options{Funcs: []string{"f"}})
	if r := p2.Alias(env.loc(0), env.loc(1), q); r != aa.NoAlias {
		t.Error("queries inside the function filter must be answered")
	}
}

func TestDumpOutputFormat(t *testing.T) {
	env := newQueryEnv(t, 2)
	var buf bytes.Buffer
	p := New(env.m, Options{
		Seq:  Seq{false},
		Dump: DumpFlags{First: true, Cached: true, Pessimistic: true},
		Out:  &buf,
	})
	q := &aa.QueryCtx{Pass: "Global Value Numbering", Func: env.fn}
	p.Alias(env.loc(0), env.loc(1), q)
	p.Alias(env.loc(0), env.loc(1), q) // cached
	out := buf.String()
	for _, want := range []string{
		"[ORAQL] Pessimistic query [Cached 0]",
		"[ORAQL] Pessimistic query [Cached 1]",
		"LocationSize::precise(8)",
		"[ORAQL] Scope: f",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q in:\n%s", want, out)
		}
	}
}

func TestDumpFlagsGating(t *testing.T) {
	if (DumpFlags{First: true}).Any() {
		t.Error("need one flag of each category")
	}
	if !(DumpFlags{First: true, Optimistic: true}).Any() {
		t.Error("first+optimistic should enable output")
	}
	env := newQueryEnv(t, 2)
	var buf bytes.Buffer
	p := New(env.m, Options{
		Dump: DumpFlags{First: true, Pessimistic: true}, // only pessimistic
		Out:  &buf,
	})
	p.Alias(env.loc(0), env.loc(1), nil) // optimistic answer
	if buf.Len() != 0 {
		t.Errorf("optimistic query must not be dumped: %q", buf.String())
	}
}

func TestRecordsCarryPassAttribution(t *testing.T) {
	env := newQueryEnv(t, 2)
	p := New(env.m, Options{})
	p.Alias(env.loc(0), env.loc(1), &aa.QueryCtx{Pass: "Early CSE", Func: env.fn})
	recs := p.Records()
	if len(recs) != 1 || recs[0].Pass != "Early CSE" || recs[0].Func != "f" {
		t.Errorf("records: %+v", recs)
	}
}

// Property: for any sequence, the number of unique answers equals
// min(#unique pairs, ...) and pessimistic counts match the consumed
// prefix's zeros.
func TestSequenceAccountingProperty(t *testing.T) {
	f := func(bits []bool, nPairs uint8) bool {
		n := int(nPairs%10) + 1
		env := newQueryEnv(t, n+1)
		p := New(env.m, Options{Seq: Seq(bits)})
		for i := 0; i < n; i++ {
			p.Alias(env.loc(i), env.loc(i+1), nil)
		}
		s := p.Stats()
		if s.Unique() != n {
			return false
		}
		wantPess := 0
		for i := 0; i < n && i < len(bits); i++ {
			if !bits[i] {
				wantPess++
			}
		}
		return s.UniquePessimistic == wantPess
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockingModeSuppressesChain(t *testing.T) {
	env := newQueryEnv(t, 3)
	// Blocking with the empty sequence blocks every query.
	p := New(env.m, Options{Mode: ModeBlocking})
	if !p.Block(env.loc(0), env.loc(1), nil) {
		t.Error("empty blocking sequence must block everything")
	}
	// A "1" lets the chain answer; cache keeps it consistent.
	p2 := New(env.m, Options{Mode: ModeBlocking, Seq: Seq{true, false}})
	if p2.Block(env.loc(0), env.loc(1), nil) {
		t.Error("seq[0]=1 must allow the chain")
	}
	if !p2.Block(env.loc(1), env.loc(2), nil) {
		t.Error("seq[1]=0 must block")
	}
	if p2.Block(env.loc(1), env.loc(0), nil) {
		t.Error("cached pair must stay allowed")
	}
	// The two modes are mutually exclusive per instance.
	if r := p2.Alias(env.loc(0), env.loc(2), nil); r != aa.MayAlias {
		t.Error("a blocking-mode pass must not answer Alias queries")
	}
}

// TestTranscriptFitReplayScript pins the step-reuse primitives: a
// recorded transcript fits exactly the responder states that would
// answer its queries the same way, replaying it has the live step's
// effects, and a script catches a query other than the recorded one.
func TestTranscriptFitReplayScript(t *testing.T) {
	env := newQueryEnv(t, 4)
	q := &aa.QueryCtx{Pass: "GVN", Func: env.fn}
	step := func(p *Pass) {
		p.Alias(env.loc(0), env.loc(1), q) // first issue
		p.Alias(env.loc(1), env.loc(0), q) // the same pair again
		p.Alias(env.loc(2), env.loc(3), q) // first issue
	}
	live := New(env.m, Options{Seq: Seq{false, true}})
	live.BeginStep()
	step(live)
	tr := live.EndStep()
	if len(tr) != 3 || !tr[0].First || tr[1].First || !tr[2].First || tr[0].Answer || !tr[2].Answer {
		t.Fatalf("transcript %+v", tr)
	}

	for _, c := range []struct {
		name string
		opts Options
		fits bool
	}{
		{"same sequence", Options{Seq: Seq{false, true}}, true},
		{"optimistic past the end", Options{Seq: Seq{false}}, true},
		{"blocking past the end", Options{Mode: ModeBlocking, Seq: Seq{false}}, false},
		{"first answer differs", Options{Seq: Seq{true, true}}, false},
		{"second answer differs", Options{Seq: Seq{false, false}}, false},
	} {
		if got := New(env.m, c.opts).Fits(tr); got != c.fits {
			t.Errorf("%s: Fits = %v, want %v", c.name, got, c.fits)
		}
	}
	// A pair already cached with the other answer decides, even when
	// the sequence positions would fit.
	cached := New(env.m, Options{Seq: Seq{true, true}})
	cached.Alias(env.loc(0), env.loc(1), q)
	if cached.Fits(tr) {
		t.Error("a cached answer contradicting the transcript must not fit")
	}

	re := New(env.m, Options{Seq: Seq{false, true}})
	re.Replay(tr)
	if re.Stats() != live.Stats() {
		t.Errorf("replayed stats %+v, live %+v", re.Stats(), live.Stats())
	}
	if r := re.Alias(env.loc(1), env.loc(0), q); r != aa.MayAlias {
		t.Error("a replayed first issue must serve later queries from the pair cache")
	}

	sc := New(env.m, Options{})
	sc.Script(tr)
	step(sc)
	if !sc.EndScript() {
		t.Error("re-executing the recorded queries must keep the script intact")
	}
	if sc.Stats() != (Stats{}) {
		t.Errorf("scripted answers touched the counters: %+v", sc.Stats())
	}
	sc.Script(tr)
	sc.Alias(env.loc(0), env.loc(2), q)
	if sc.EndScript() {
		t.Error("a different pair key must break the script")
	}
}

// A pass's records render each distinct location once and restore
// with the same locations and counters; Restore refuses records that
// contradict the sequence, the counters or their own location table.
func TestRenderRestore(t *testing.T) {
	env := newQueryEnv(t, 3)
	opts := Options{Seq: Seq{false, true}}
	p := New(env.m, opts)
	q := &aa.QueryCtx{Pass: "GVN", Func: env.fn}
	p.Alias(env.loc(0), env.loc(1), q)
	p.Alias(env.loc(0), env.loc(2), q)
	p.Alias(env.loc(1), env.loc(0), q) // cached
	rr := Render(p.Records())
	// The three allocas print alike, so their locations are one entry.
	if len(rr.Records) != 2 || len(rr.Locs) != 1 {
		t.Fatalf("rendered %d records over %d locations, want 2 over 1", len(rr.Records), len(rr.Locs))
	}
	r, err := Restore(opts, p.Stats(), rr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats() != p.Stats() {
		t.Errorf("restored stats %+v, want %+v", r.Stats(), p.Stats())
	}
	for i, rec := range r.Records() {
		live := p.Records()[i]
		ra, rb := rec.LocDescriptions()
		la, lb := live.LocDescriptions()
		rsa, rsb := rec.SrcLocs()
		lsa, lsb := live.SrcLocs()
		if ra != la || rb != lb || rsa != lsa || rsb != lsb || rec.CacheHits != live.CacheHits || rec.A.Ptr != nil {
			t.Errorf("record %d restored as %+v (%s, %s), want %+v (%s, %s) without IR pointers", i, rec, ra, rb, live, la, lb)
		}
	}
	for name, edit := range map[string]func(rr *RenderedRecords, s *Stats){
		"index":      func(rr *RenderedRecords, _ *Stats) { rr.Records[1].Index = 0 },
		"answer":     func(rr *RenderedRecords, _ *Stats) { rr.Records[0].Optimistic = true },
		"count":      func(rr *RenderedRecords, _ *Stats) { rr.Records = rr.Records[:1] },
		"cache hits": func(_ *RenderedRecords, s *Stats) { s.CachedPessimistic++ },
		"location":   func(rr *RenderedRecords, _ *Stats) { rr.Records[1].B = len(rr.Locs) },
	} {
		bad := &RenderedRecords{Locs: rr.Locs, Records: append([]RenderedRecord(nil), rr.Records...)}
		stats := p.Stats()
		edit(bad, &stats)
		if _, err := Restore(opts, stats, bad); err == nil {
			t.Errorf("%s: Restore accepted records that contradict it", name)
		}
	}
}
