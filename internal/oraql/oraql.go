// Package oraql implements the paper's core contribution: the ORAQL
// "alias analysis" pass. The name is a misnomer by design — no analysis
// is performed. The pass sits at the end of the alias-analysis chain
// and answers the queries no conservative analysis could resolve,
// according to a predetermined response sequence supplied by the
// probing driver: "1" means optimistic (no-alias), "0" means
// pessimistic (may-alias). Once the sequence is exhausted, all further
// unique queries are answered optimistically, which makes the empty
// sequence the fully optimistic compilation.
//
// A cache keyed on the unordered pointer pair — deliberately ignoring
// the location descriptions — serves repeated queries, both to shorten
// the probed sequence and to keep the optimistic answers internally
// consistent (paper Section IV-A).
package oraql

import (
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/ir"
)

// Seq is a response sequence: true answers a query optimistically
// (no-alias), false pessimistically (may-alias).
type Seq []bool

// ParseSeq parses the -opt-aa-seq sequence syntax: space-separated
// "1"/"0" characters. The empty string is the empty (fully optimistic)
// sequence. It parses text only: the @<filename> response-file form is
// the oraql-opt command line's to expand, so a sequence that arrives
// in a request or a script never reads a file.
func ParseSeq(s string) (Seq, error) {
	var seq Seq
	for _, f := range strings.Fields(s) {
		switch f {
		case "1":
			seq = append(seq, true)
		case "0":
			seq = append(seq, false)
		default:
			return nil, fmt.Errorf("oraql: invalid sequence element %q (want 0 or 1)", f)
		}
	}
	return seq, nil
}

// String renders the sequence in -opt-aa-seq syntax.
func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, b := range s {
		if b {
			parts[i] = "1"
		} else {
			parts[i] = "0"
		}
	}
	return strings.Join(parts, " ")
}

// Clone returns a copy of the sequence.
func (s Seq) Clone() Seq { return append(Seq(nil), s...) }

// CountPessimistic returns the number of 0s in the sequence.
func (s Seq) CountPessimistic() int {
	n := 0
	for _, b := range s {
		if !b {
			n++
		}
	}
	return n
}

// DumpFlags selects which queries the pass prints, mirroring the
// -opt-aa-dump-{first,cached} x -opt-aa-dump-{optimistic,pessimistic}
// command-line flags. At least one of First/Cached and one of
// Optimistic/Pessimistic must be set for any output to appear.
type DumpFlags struct {
	First       bool
	Cached      bool
	Optimistic  bool
	Pessimistic bool
}

// Any reports whether the flags can produce output at all.
func (d DumpFlags) Any() bool {
	return (d.First || d.Cached) && (d.Optimistic || d.Pessimistic)
}

// Mode selects how the responder participates in the analysis chain.
type Mode int

const (
	// ModeOptimistic is the paper's main design: the pass sits last in
	// the chain and answers leftover queries no-alias ("1") or
	// may-alias ("0").
	ModeOptimistic Mode = iota
	// ModeBlocking is the Section VIII future-work design: the pass is
	// consulted *first* and a "0" suppresses the whole analysis chain
	// for that query (forcing may-alias), which measures how much the
	// existing conservative analyses actually contribute. "1" lets the
	// chain answer normally. More pessimism is always sound, so no
	// verification bisection is needed in this mode.
	ModeBlocking
	// ModeOptimisticMust is Section VIII's other open question: answer
	// leftover queries *must-alias* instead of no-alias, to see whether
	// optimistic must-alias responses unlock additional forwarding
	// (store-to-load forwarding keys on must-alias). Wrong answers
	// break programs exactly as in the no-alias mode, so the same
	// probing workflow applies.
	ModeOptimisticMust
)

// Options configures the pass.
type Options struct {
	// Mode selects optimistic (default) or blocking operation.
	Mode Mode
	// Seq is the response sequence (-opt-aa-seq).
	Seq Seq
	// Target restricts the pass to modules whose target string contains
	// this substring (-opt-aa-target); empty matches everything. Used
	// for offload compilations where only the device part is probed.
	Target string
	// Funcs restricts the pass to queries issued while compiling the
	// named functions; empty means all. The driver fills this from the
	// benchmark configuration ("the exact files or functions to which
	// optimistic probing is applied").
	Funcs []string
	// Files restricts by source file of either query pointer.
	Files []string
	// Dump controls debug output; Out receives it (default os.Stderr).
	Dump DumpFlags
	Out  io.Writer
}

// QueryRecord describes one unique (non-cached) query the pass
// answered; the report tooling renders these like the paper's Fig. 3.
// A record restored from a persisted compilation (Restore) carries its
// rendered locations instead: its A and B hold no IR pointers, so
// readers go through LocDescriptions and SrcLocs.
type QueryRecord struct {
	Index      int  // position in the unique-query stream
	Optimistic bool // response given
	A, B       aa.MemLoc
	Pass       string // requesting pass at first issue
	Func       string // enclosing function
	CacheHits  int    // times later served from cache

	rendered *[2]RenderedLoc // restored records only
}

// LocDescriptions renders both query locations the way the Fig. 3
// dump does; the difftest triage reports embed these strings.
func (r *QueryRecord) LocDescriptions() (a, b string) {
	if r.rendered != nil {
		return r.rendered[0].Desc, r.rendered[1].Desc
	}
	return describeLoc(r.A), describeLoc(r.B)
}

// SrcLocs returns the source locations of the two query pointers
// (either may be invalid).
func (r *QueryRecord) SrcLocs() (a, b ir.SrcLoc) {
	if r.rendered != nil {
		return r.rendered[0].Src, r.rendered[1].Src
	}
	return srcOf(r.A), srcOf(r.B)
}

// RenderedRecords are a compilation's query records with their
// locations rendered, the form in which a persisted compilation keeps
// them. Each distinct location is kept once.
type RenderedRecords struct {
	Locs    []RenderedLoc    `json:"locs"`
	Records []RenderedRecord `json:"records"`
}

// RenderedLoc is one query location rendered: what LocDescriptions
// and SrcLocs return for it.
type RenderedLoc struct {
	Desc string    `json:"desc"`
	Src  ir.SrcLoc `json:"src"`
}

// RenderedRecord is one query record whose locations A and B index
// RenderedRecords.Locs.
type RenderedRecord struct {
	Index      int    `json:"index"`
	Optimistic bool   `json:"optimistic"`
	Pass       string `json:"pass"`
	Func       string `json:"func"`
	CacheHits  int    `json:"cache_hits"`
	A          int    `json:"a"`
	B          int    `json:"b"`
}

// Render renders the locations of recs, each distinct one once. The
// IR the records point into must no longer change.
func Render(recs []*QueryRecord) *RenderedRecords {
	out := &RenderedRecords{Records: make([]RenderedRecord, len(recs))}
	type memoKey struct {
		ptr   ir.Value
		size  aa.LocationSize
		instr *ir.Instr
	}
	index := map[RenderedLoc]int{}
	intern := func(l RenderedLoc) int {
		i, ok := index[l]
		if !ok {
			i = len(out.Locs)
			out.Locs = append(out.Locs, l)
			index[l] = i
		}
		return i
	}
	memo := map[memoKey]int{}
	loc := func(r *QueryRecord, side int) int {
		if r.rendered != nil {
			return intern(r.rendered[side])
		}
		m := r.A
		if side == 1 {
			m = r.B
		}
		k := memoKey{m.Ptr, m.Size, m.Instr}
		i, ok := memo[k]
		if !ok {
			i = intern(RenderedLoc{Desc: describeLoc(m), Src: srcOf(m)})
			memo[k] = i
		}
		return i
	}
	for i, r := range recs {
		out.Records[i] = RenderedRecord{Index: r.Index, Optimistic: r.Optimistic, Pass: r.Pass,
			Func: r.Func, CacheHits: r.CacheHits, A: loc(r, 0), B: loc(r, 1)}
	}
	return out
}

// Stats are the counters the pass reports through the statistics
// mechanism; the driver reads Unique to size bisection sequences.
type Stats struct {
	UniqueOptimistic  int
	CachedOptimistic  int
	UniquePessimistic int
	CachedPessimistic int
}

// Unique is the number of unique (non-cached) queries answered.
func (s Stats) Unique() int { return s.UniqueOptimistic + s.UniquePessimistic }

// Cached is the number of queries served from the pair cache.
func (s Stats) Cached() int { return s.CachedOptimistic + s.CachedPessimistic }

// Pass is the ORAQL responder. It implements aa.Analysis and must be
// appended as the last element of the analysis chain so that it only
// sees otherwise-unanswerable queries.
type Pass struct {
	opts    Options
	module  *ir.Module
	active  bool
	cursor  int
	cache   map[[2]int64]*QueryRecord
	records []*QueryRecord
	stats   Stats

	// recording collects the current step's transcript (BeginStep);
	// script, when non-nil, answers queries from a recorded transcript
	// instead (Script).
	recording bool
	step      Transcript
	script    *script
}

// TranscriptEntry is one answered query of a pass step: the pair key,
// the answer, and whether it was a first issue (it consumed a sequence
// position) or a pair-cache hit. Fits and Replay work First out from
// the responder's state, so it only documents the recording.
type TranscriptEntry struct {
	Key    [2]int64
	Answer bool
	First  bool
}

// Transcript is the ordered query stream one (pass, function) step
// put to the responder. It holds no IR pointers.
type Transcript []TranscriptEntry

// script is a transcript being answered from during re-execution.
type script struct {
	t   Transcript
	pos int
	bad bool
}

// New creates a pass instance for one compilation of m.
func New(m *ir.Module, opts Options) *Pass {
	if opts.Out == nil {
		opts.Out = os.Stderr
	}
	p := &Pass{opts: opts, module: m, cache: map[[2]int64]*QueryRecord{}}
	p.active = opts.Target == "" || strings.Contains(m.Target, opts.Target)
	return p
}

// Restore returns a pass that reports the counters and records of an
// earlier compilation under opts and answers no query. It checks them
// against opts first: record i must have Index i, opts' answer at i
// and locations that exist, there must be one record per unique query,
// and the records' cache hits must sum to the cached counters by
// answer.
func Restore(opts Options, stats Stats, rr *RenderedRecords) (*Pass, error) {
	p := &Pass{opts: opts, stats: stats, records: make([]*QueryRecord, len(rr.Records))}
	var opt int
	var hits [2]int // pessimistic, optimistic
	for i, r := range rr.Records {
		if r.Index != i || r.Optimistic != p.seqAt(i) || r.CacheHits < 0 ||
			r.A < 0 || r.A >= len(rr.Locs) || r.B < 0 || r.B >= len(rr.Locs) {
			return nil, fmt.Errorf("oraql: restored record %d does not match the sequence or its locations", i)
		}
		if r.Optimistic {
			opt++
			hits[1] += r.CacheHits
		} else {
			hits[0] += r.CacheHits
		}
		p.records[i] = &QueryRecord{Index: r.Index, Optimistic: r.Optimistic, Pass: r.Pass,
			Func: r.Func, CacheHits: r.CacheHits, rendered: &[2]RenderedLoc{rr.Locs[r.A], rr.Locs[r.B]}}
	}
	if len(rr.Records) != stats.Unique() || opt != stats.UniqueOptimistic ||
		hits != [2]int{stats.CachedPessimistic, stats.CachedOptimistic} {
		return nil, fmt.Errorf("oraql: %d restored records do not match the counters %+v", len(rr.Records), stats)
	}
	return p, nil
}

// Name implements aa.Analysis.
func (*Pass) Name() string { return "oraql" }

// Stats returns the pass counters.
func (p *Pass) Stats() Stats { return p.stats }

// Records returns the unique queries in issue order.
func (p *Pass) Records() []*QueryRecord { return p.records }

// Alias implements aa.Analysis (ModeOptimistic / ModeOptimisticMust):
// answer from cache, else consume the next sequence element (optimistic
// once the sequence is exhausted).
func (p *Pass) Alias(a, b aa.MemLoc, q *aa.QueryCtx) aa.Result {
	if p.opts.Mode == ModeBlocking || !p.active || !p.inScope(a, b, q) {
		return aa.MayAlias
	}
	if !p.decide(a, b, q) {
		return aa.MayAlias
	}
	if p.opts.Mode == ModeOptimisticMust {
		return aa.MustAlias
	}
	return aa.NoAlias
}

// Block implements aa.Blocker (ModeBlocking): a "0" in the sequence
// suppresses the analysis chain for that query; past the sequence end
// everything is blocked, so the empty sequence disables the chain
// entirely (the fully pessimistic compilation).
func (p *Pass) Block(a, b aa.MemLoc, q *aa.QueryCtx) bool {
	if p.opts.Mode != ModeBlocking || !p.active || !p.inScope(a, b, q) {
		return false
	}
	// Record semantics: Optimistic == "chain allowed".
	return !p.decide(a, b, q)
}

// decide serves the query from the pair cache or consumes the next
// sequence element (the mode's past-end answer once it runs out).
func (p *Pass) decide(a, b aa.MemLoc, q *aa.QueryCtx) bool {
	key := pairKey(a.Ptr, b.Ptr)
	if p.script != nil {
		return p.script.answer(key)
	}
	if rec, ok := p.cache[key]; ok {
		rec.CacheHits++
		if rec.Optimistic {
			p.stats.CachedOptimistic++
		} else {
			p.stats.CachedPessimistic++
		}
		if p.recording {
			p.step = append(p.step, TranscriptEntry{Key: key, Answer: rec.Optimistic})
		}
		p.dump(rec, true)
		return rec.Optimistic
	}
	optimistic := p.seqAt(p.cursor)
	if p.recording {
		p.step = append(p.step, TranscriptEntry{Key: key, Answer: optimistic, First: true})
	}
	rec := &QueryRecord{
		Index:      p.cursor,
		Optimistic: optimistic,
		A:          a,
		B:          b,
	}
	if q != nil {
		rec.Pass = q.Pass
		if q.Func != nil {
			rec.Func = q.Func.Name
		}
	}
	p.cursor++
	p.cache[key] = rec
	p.records = append(p.records, rec)
	if optimistic {
		p.stats.UniqueOptimistic++
	} else {
		p.stats.UniquePessimistic++
	}
	p.dump(rec, false)
	return optimistic
}

// pastEnd is the answer to first issues beyond the sequence end:
// optimistic in the optimistic modes, "block" in blocking mode.
func (p *Pass) pastEnd() bool { return p.opts.Mode != ModeBlocking }

// seqAt is the answer of sequence position i.
func (p *Pass) seqAt(i int) bool {
	if i < len(p.opts.Seq) {
		return p.opts.Seq[i]
	}
	return p.pastEnd()
}

// BeginStep starts recording the transcript of one pass step.
func (p *Pass) BeginStep() {
	p.recording = true
	p.step = p.step[:0]
}

// EndStep stops recording and returns a copy of the step's transcript
// (nil when the step put no query to the responder).
func (p *Pass) EndStep() Transcript {
	p.recording = false
	if len(p.step) == 0 {
		return nil
	}
	return append(Transcript(nil), p.step...)
}

// Fits reports whether replaying t now would give every one of its
// queries the answer recorded in it: pair-cache entries (including
// keys first issued earlier in t) must hold the recorded answer, and
// each first issue must meet the recorded answer at the next sequence
// position. The responder's state is not changed.
func (p *Pass) Fits(t Transcript) bool {
	cursor := p.cursor
	for i, e := range t {
		if rec, ok := p.cache[e.Key]; ok {
			if rec.Optimistic != e.Answer {
				return false
			}
			continue
		}
		if j := t.firstIssue(i); j >= 0 {
			if t[j].Answer != e.Answer {
				return false
			}
			continue
		}
		if p.seqAt(cursor) != e.Answer {
			return false
		}
		cursor++
	}
	return true
}

// firstIssue returns the index of the first entry before i that shares
// entry i's key, or -1. Transcripts are short, so a scan beats a map.
func (t Transcript) firstIssue(i int) int {
	for j := 0; j < i; j++ {
		if t[j].Key == t[i].Key {
			return j
		}
	}
	return -1
}

// Replay applies a fitting transcript's effects without running the
// step: first issues advance the cursor and enter the pair cache,
// repeats count as cache hits. Records of replayed first issues carry
// no locations and are not listed by Records, so a compilation's
// records are exact only while nothing was replayed.
func (p *Pass) Replay(t Transcript) {
	for _, e := range t {
		if rec, ok := p.cache[e.Key]; ok {
			rec.CacheHits++
			if rec.Optimistic {
				p.stats.CachedOptimistic++
			} else {
				p.stats.CachedPessimistic++
			}
			continue
		}
		p.cache[e.Key] = &QueryRecord{Index: p.cursor, Optimistic: e.Answer}
		p.cursor++
		if e.Answer {
			p.stats.UniqueOptimistic++
		} else {
			p.stats.UniquePessimistic++
		}
	}
}

// Script makes the responder answer the next step from t, in order,
// without touching its cursor, pair cache or counters — re-executing a
// step whose answers are known. A query whose pair key differs from
// the recorded one (or one past the transcript's end) marks the script
// broken and is answered pessimistically. EndScript reports the verdict.
func (p *Pass) Script(t Transcript) { p.script = &script{t: t} }

// EndScript leaves script mode and reports whether the step asked
// exactly the recorded queries.
func (p *Pass) EndScript() bool {
	s := p.script
	p.script = nil
	return s != nil && !s.bad && s.pos == len(s.t)
}

func (s *script) answer(key [2]int64) bool {
	if s.bad || s.pos >= len(s.t) || s.t[s.pos].Key != key {
		s.bad = true
		return false
	}
	s.pos++
	return s.t[s.pos-1].Answer
}

// inScope applies the function/file filters from the configuration.
func (p *Pass) inScope(a, b aa.MemLoc, q *aa.QueryCtx) bool {
	if len(p.opts.Funcs) > 0 {
		if q == nil || q.Func == nil || !contains(p.opts.Funcs, q.Func.Name) {
			return false
		}
	}
	if len(p.opts.Files) > 0 {
		if !p.fileMatch(a) && !p.fileMatch(b) {
			return false
		}
	}
	return true
}

func (p *Pass) fileMatch(l aa.MemLoc) bool {
	if l.Instr == nil || !l.Instr.Loc.IsValid() {
		return false
	}
	return contains(p.opts.Files, l.Instr.Loc.File)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// pairKey builds the cache key: the unordered pointer pair, with
// location descriptions deliberately dropped (paper Section IV-A).
func pairKey(a, b ir.Value) [2]int64 {
	x, y := a.VID(), b.VID()
	if x > y {
		x, y = y, x
	}
	return [2]int64{x, y}
}

// dump prints a query in the format of the paper's Fig. 3.
func (p *Pass) dump(rec *QueryRecord, cached bool) {
	d := p.opts.Dump
	if !d.Any() {
		return
	}
	if cached && !d.Cached || !cached && !d.First {
		return
	}
	if rec.Optimistic && !d.Optimistic || !rec.Optimistic && !d.Pessimistic {
		return
	}
	kind := "Optimistic"
	if !rec.Optimistic {
		kind = "Pessimistic"
	}
	c := 0
	if cached {
		c = 1
	}
	fmt.Fprintf(p.opts.Out, "[ORAQL] %s query [Cached %d]\n", kind, c)
	fmt.Fprintf(p.opts.Out, "[ORAQL] - %s\n", describeLoc(rec.A))
	fmt.Fprintf(p.opts.Out, "[ORAQL] - %s\n", describeLoc(rec.B))
	if rec.Func != "" {
		fmt.Fprintf(p.opts.Out, "[ORAQL] Scope: %s\n", rec.Func)
	}
	if la, lb := srcOf(rec.A), srcOf(rec.B); la.IsValid() || lb.IsValid() {
		fmt.Fprintf(p.opts.Out, "[ORAQL] LocA: %s\n", la)
		fmt.Fprintf(p.opts.Out, "[ORAQL] LocB: %s\n", lb)
	}
}

func describeLoc(l aa.MemLoc) string {
	var def string
	if in, ok := l.Ptr.(*ir.Instr); ok {
		def = in.String()
	} else {
		def = l.Ptr.Type().String() + " " + l.Ptr.Ident()
	}
	return def + " [" + l.Size.String() + "]"
}

func srcOf(l aa.MemLoc) ir.SrcLoc {
	if in, ok := l.Ptr.(*ir.Instr); ok && in.Loc.IsValid() {
		return in.Loc
	}
	if l.Instr != nil {
		return l.Instr.Loc
	}
	return ir.SrcLoc{}
}
