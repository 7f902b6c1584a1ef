// Package warehouse is the miscompile forensics warehouse: a
// disk-backed, content-addressed store of campaign findings layered on
// internal/diskcache. Every probe, fuzz, and triage result — campaign
// identity (app config, AA chain, strategy, grammar profile, seed),
// per-query verdicts, the final response sequence, executable hashes,
// and triage artifacts — is persisted as an immutable Record whose ID
// is the sha256 of its canonical JSON, so ingestion is idempotent by
// construction: the same finding from any process lands on the same
// address.
//
// The record index is a grow-only diskcache set (AddToSet/SetMembers):
// one member per record, named by its ID and holding its small
// Summary. Filing a record adds one member and rewrites nothing, and
// link semantics make racing writers sharing one -cache-dir converge
// to exactly one member per unique finding, with exactly one of them
// told it added the record. Secondary views — by pass, query shape,
// function hash, grammar profile — are derived deterministically from
// the summaries at load time (see query.go), never stored, so they
// cannot drift from the records.
//
// The package also exports compiled modules as a typed code property
// graph (cpg.go): IR structure, CFG/dominator edges, data-flow and
// call edges, and alias facts from the AA chain plus ORAQL verdicts,
// annotated with the warehouse's cross-campaign verdict history.
package warehouse

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/oraql/go-oraql/internal/diskcache"
)

// Record kinds.
const (
	KindProbe  = "probe"
	KindFuzz   = "fuzz"
	KindTriage = "triage"
)

// QueryVerdict is one alias query of a finished campaign with the
// verdict the probe settled on (optimistic = answered no-alias in the
// final verified compilation).
type QueryVerdict struct {
	Index      int    `json:"index"`
	Pass       string `json:"pass"`
	Func       string `json:"func"`
	A          string `json:"a"`
	B          string `json:"b"`
	Optimistic bool   `json:"optimistic"`
}

// Shape is the coarse recurrence class of the query: the requesting
// pass plus the syntactic class of both locations, order-normalized.
// Shapes are what recur across apps when concrete pointers differ.
func (q QueryVerdict) Shape() string {
	a, b := locClass(q.A), locClass(q.B)
	if b < a {
		a, b = b, a
	}
	return q.Pass + "|" + a + "|" + b
}

// locClass reduces a Fig. 3 location description to its defining
// operation ("load", "gep", "phi", ...) or value class ("global",
// "arg") — the part of the query that generalizes across programs.
func locClass(desc string) string {
	if i := strings.Index(desc, "= "); i >= 0 {
		rest := desc[i+2:]
		if j := strings.IndexAny(rest, " ,"); j >= 0 {
			return rest[:j]
		}
		return rest
	}
	f := strings.Fields(desc)
	if len(f) >= 2 && strings.HasPrefix(f[1], "@") {
		return "global"
	}
	if len(f) >= 2 {
		return "arg"
	}
	return "unknown"
}

// TriageArtifact is the persisted triage outcome: the delta-debugged
// reproducer and what the bisections pinned. ID is the stable
// content-addressed handle (internal/report TriageArtifactID) shared
// by warehouse records, JSON reports, and /events log lines.
type TriageArtifact struct {
	ID         string `json:"id"`
	Reproducer string `json:"reproducer"`
	ReproLines int    `json:"repro_lines"`
	Pass       string `json:"pass"`
	PassIndex  int    `json:"pass_index"`
	GuiltySeq  string `json:"guilty_seq,omitempty"`
	Variant    string `json:"variant,omitempty"`
}

// Record is one campaign finding. The zero values of unused fields are
// omitted from the canonical JSON, so the ID only covers what the
// finding actually says.
type Record struct {
	Kind string `json:"kind"`

	// Campaign identity.
	App       string `json:"app,omitempty"`        // app config / benchmark name
	ScriptSHA string `json:"script_sha,omitempty"` // sha256 of the .oraql script, if scripted
	AAChain   string `json:"aa_chain,omitempty"`   // canonical chain spec
	Strategy  string `json:"strategy,omitempty"`   // probing strategy name
	Grammar   string `json:"grammar,omitempty"`    // generator grammar profile
	Seed      int64  `json:"seed,omitempty"`       // generator seed

	// Probe outcome. Effort counters (compiles, tests) are deliberately
	// NOT part of a record: they vary between cold and warm runs of the
	// same campaign, and the record identity must cover the finding,
	// not the work it took — otherwise re-probing duplicates corpus
	// entries.
	FinalSeq        string `json:"final_seq,omitempty"`
	FullyOptimistic bool   `json:"fully_optimistic,omitempty"`
	ExeHash         string `json:"exe_hash,omitempty"`

	// Divergent marks fuzz findings (the oracle caught a miscompile).
	Divergent bool `json:"divergent,omitempty"`

	// Per-query verdicts of the final verified compilation (probe) or
	// the guilty set (triage).
	Queries []QueryVerdict `json:"queries,omitempty"`

	// FuncHashes maps function names to content hashes of the baseline
	// module, linking verdicts to the per-function history.
	FuncHashes map[string]string `json:"func_hashes,omitempty"`

	// Artifact is the triage outcome, for triage records.
	Artifact *TriageArtifact `json:"artifact,omitempty"`
}

// canonical renders the record's canonical JSON: encoding/json emits
// struct fields in declaration order and map keys sorted, so equal
// records produce equal bytes in every process.
func (r *Record) canonical() ([]byte, error) {
	return json.Marshal(r)
}

// Summary is the index's compact view of one record: enough to answer
// cross-campaign queries without loading record blobs.
type Summary struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	App       string `json:"app,omitempty"`
	AAChain   string `json:"aa_chain,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Grammar   string `json:"grammar,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Divergent bool   `json:"divergent,omitempty"`

	// Passes and Shapes list the distinct guilty (pessimistic) passes
	// and query shapes, sorted; ShapeCounts carries the full verdict
	// frequencies per shape (Manifest.ShapePriors).
	Passes      []string                           `json:"passes,omitempty"`
	Shapes      []string                           `json:"shapes,omitempty"`
	ShapeCounts map[string]diskcache.VerdictCounts `json:"shape_counts,omitempty"`

	// FuncHashes is the sorted set of function content hashes.
	FuncHashes []string `json:"func_hashes,omitempty"`

	ArtifactID string `json:"artifact_id,omitempty"`
}

// Store is a warehouse over a shared diskcache store.
type Store struct {
	d *diskcache.Store
}

// Open layers a warehouse on a diskcache store; returns nil when d is
// nil so callers can gate on configuration with one check.
func Open(d *diskcache.Store) *Store {
	if d == nil {
		return nil
	}
	return &Store{d: d}
}

// indexKey names the set that lists every filed record.
func indexKey() string { return diskcache.Key("wh-index") }

// recordKey addresses one immutable record blob.
func recordKey(id string) string { return diskcache.Key("wh-record", id) }

// summarize derives the index summary of a record.
func summarize(id string, r *Record) *Summary {
	s := &Summary{
		ID: id, Kind: r.Kind, App: r.App, AAChain: r.AAChain,
		Strategy: r.Strategy, Grammar: r.Grammar, Seed: r.Seed,
		Divergent: r.Divergent,
	}
	passes := map[string]bool{}
	shapes := map[string]bool{}
	for _, q := range r.Queries {
		shape := q.Shape()
		if s.ShapeCounts == nil {
			s.ShapeCounts = map[string]diskcache.VerdictCounts{}
		}
		c := s.ShapeCounts[shape]
		if q.Optimistic {
			c.Optimistic++
		} else {
			c.Pessimistic++
			passes[q.Pass] = true
			shapes[shape] = true
		}
		s.ShapeCounts[shape] = c
	}
	s.Passes = sortedSet(passes)
	s.Shapes = sortedSet(shapes)
	hashes := map[string]bool{}
	for _, h := range r.FuncHashes {
		if h != "" {
			hashes[h] = true
		}
	}
	s.FuncHashes = sortedSet(hashes)
	if r.Artifact != nil {
		s.ArtifactID = r.Artifact.ID
	}
	return s
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RecordID computes the content address of a record without storing
// it: the sha256 of its canonical JSON.
func RecordID(r *Record) (string, error) {
	data, err := r.canonical()
	if err != nil {
		return "", err
	}
	return diskcache.HashText(string(data)), nil
}

// Ingest persists a record and files it in the index. The operation is
// idempotent and safe under racing processes sharing the cache
// directory: the record blob is written only when the store holds no
// valid copy of it (racing writers publish identical content by
// construction), and the index member is named by the record ID, so
// added reports whether THIS call filed the record. Re-ingesting a
// filed record writes nothing; a deleted blob, or one whose bytes do
// not hash to its ID (which Record rejects), is written again, and a
// record whose member was lost is filed again.
func (s *Store) Ingest(r *Record) (id string, added bool, err error) {
	if r.Kind == "" {
		return "", false, fmt.Errorf("warehouse: record without kind")
	}
	data, err := r.canonical()
	if err != nil {
		return "", false, fmt.Errorf("warehouse: encode record: %w", err)
	}
	id = diskcache.HashText(string(data))
	if old, ok := s.d.Get(recordKey(id)); !ok || diskcache.HashText(string(old)) != id {
		s.d.Put(recordKey(id), data)
	}
	sum, err := json.Marshal(summarize(id, r))
	if err != nil {
		return id, false, fmt.Errorf("warehouse: encode summary: %w", err)
	}
	added, err = s.d.AddToSet(indexKey(), id, sum)
	return id, added, err
}

// Manifest is the loaded record set with deterministic iteration
// order (IDs sorted).
type Manifest struct {
	store     *Store
	byID      map[string]*Summary
	sortedIDs []string
}

// Load reads the index; an empty warehouse loads as an empty
// manifest, never an error. A member whose summary does not decode or
// does not carry its own ID is skipped.
func (s *Store) Load() *Manifest {
	byID := map[string]*Summary{}
	for id, data := range s.d.SetMembers(indexKey()) {
		var sum Summary
		if json.Unmarshal(data, &sum) != nil || sum.ID != id {
			continue
		}
		byID[id] = &sum
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return &Manifest{store: s, byID: byID, sortedIDs: ids}
}

// Len is the number of registered records.
func (m *Manifest) Len() int { return len(m.sortedIDs) }

// Summaries returns every summary in ID order.
func (m *Manifest) Summaries() []*Summary {
	out := make([]*Summary, len(m.sortedIDs))
	for i, id := range m.sortedIDs {
		out[i] = m.byID[id]
	}
	return out
}

// Record fetches a full record blob by ID, verifying its address.
func (m *Manifest) Record(id string) (*Record, bool) {
	data, ok := m.store.d.Get(recordKey(id))
	if !ok {
		return nil, false
	}
	if diskcache.HashText(string(data)) != id {
		return nil, false
	}
	var r Record
	if json.Unmarshal(data, &r) != nil {
		return nil, false
	}
	return &r, true
}
