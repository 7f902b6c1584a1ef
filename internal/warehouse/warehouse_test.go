package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	d, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Open(d)
}

func probeRecord(app string, seed int64) *Record {
	return &Record{
		Kind:     KindProbe,
		App:      app,
		AAChain:  "default",
		Strategy: "chunked",
		Seed:     seed,
		FinalSeq: "1 0 1",
		Queries: []QueryVerdict{
			{Index: 0, Pass: "Early CSE", Func: "main", A: "%a = load i64", B: "%b = load i64", Optimistic: true},
			{Index: 1, Pass: "Early CSE", Func: "main", A: "%a = gep %p", B: "%b = gep %q", Optimistic: false},
			{Index: 2, Pass: "LICM", Func: "kernel", A: "%v = load i64", B: "global @g", Optimistic: false},
		},
		FuncHashes: map[string]string{"main": "h-main", "kernel": "h-kernel"},
	}
}

func TestIngestIdempotent(t *testing.T) {
	w := openStore(t, t.TempDir())
	rec := probeRecord("app-a", 1)
	id1, added, err := w.Ingest(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("first ingest of a record must report added")
	}
	puts := w.d.Counters().Puts
	id2, added, err := w.Ingest(probeRecord("app-a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("re-ingesting the same finding must not add a record")
	}
	if id1 != id2 {
		t.Fatalf("equal findings got different IDs: %s vs %s", id1, id2)
	}
	if got := w.d.Counters().Puts; got != puts {
		t.Fatalf("re-ingesting a filed record made %d puts, want 0", got-puts)
	}
	if n := w.Load().Len(); n != 1 {
		t.Fatalf("corpus has %d records after duplicate ingest, want 1", n)
	}
	got, ok := w.Load().Record(id1)
	if !ok {
		t.Fatalf("record %s not loadable", id1)
	}
	if len(got.Queries) != 3 || got.App != "app-a" {
		t.Fatalf("record round-trip mangled: %+v", got)
	}

	// A record whose blob was deleted is written again; the index,
	// which still lists it, is left as it is.
	key := recordKey(id1)
	if err := os.Remove(filepath.Join(w.d.Dir(), "objects", key[:2], key)); err != nil {
		t.Fatal(err)
	}
	puts = w.d.Counters().Puts
	if _, added, err := w.Ingest(probeRecord("app-a", 1)); err != nil || added {
		t.Fatalf("re-ingest after blob loss: added=%v, err=%v", added, err)
	}
	if got := w.d.Counters().Puts; got != puts+1 {
		t.Fatalf("re-ingest after blob loss made %d puts, want 1 (the blob)", got-puts)
	}
	if _, ok := w.Load().Record(id1); !ok {
		t.Fatal("deleted record blob was not written again")
	}
}

// TestRacingWriters drives many goroutines through two independent
// store handles over one directory — the same interleavings two
// processes sharing a -cache-dir produce — and demands exactly one
// index member per unique finding, with exactly one of the racing
// ingests of each reporting added. Run under -race.
func TestRacingWriters(t *testing.T) {
	dir := t.TempDir()
	a, b := openStore(t, dir), openStore(t, dir)
	const unique = 8
	const writers = 4
	var added [unique]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		for _, w := range []*Store{a, b} {
			wg.Add(1)
			go func(w *Store) {
				defer wg.Done()
				for i := 0; i < unique; i++ {
					_, ok, err := w.Ingest(probeRecord(fmt.Sprintf("app-%d", i), int64(i)))
					if err != nil {
						t.Errorf("racing ingest: %v", err)
					}
					if ok {
						added[i].Add(1)
					}
				}
			}(w)
		}
	}
	wg.Wait()
	if n := a.Load().Len(); n != unique {
		t.Fatalf("racing writers left %d records, want exactly %d", n, unique)
	}
	for i := range added {
		if n := added[i].Load(); n != 1 {
			t.Errorf("record %d: %d racing ingests reported added, want exactly 1", i, n)
		}
	}
	// Every record exists, so none may be added again.
	for i := 0; i < unique; i++ {
		if _, added, _ := b.Ingest(probeRecord(fmt.Sprintf("app-%d", i), int64(i))); added {
			t.Fatalf("record %d re-added after the race settled", i)
		}
	}
}

func TestQueryDeterministicAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	w := openStore(t, dir)
	for i, app := range []string{"app-a", "app-b", "app-c"} {
		if _, _, err := w.Ingest(probeRecord(app, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, by := range []string{"pass", "shape", "func", "grammar"} {
		rows := w.Load().Query(QueryOptions{By: by})
		first, err := MarshalRecurrences(rows)
		if err != nil {
			t.Fatal(err)
		}
		// A second handle models another process answering the same query.
		again, err := MarshalRecurrences(openStore(t, dir).Load().Query(QueryOptions{By: by}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("query -by %s differs across store handles:\n%s\nvs\n%s", by, first, again)
		}
	}
	// The cross-app recurrence signal: the guilty shape appears in all
	// three apps and sorts first.
	rows := w.Load().Query(QueryOptions{By: "shape"})
	if len(rows) == 0 || len(rows[0].Apps) != 3 {
		t.Fatalf("widest shape should span 3 apps: %+v", rows)
	}
}

func TestShapePriorsAndDivergentSeeds(t *testing.T) {
	w := openStore(t, t.TempDir())
	if _, _, err := w.Ingest(probeRecord("app-a", 1)); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{42, 7, 42} {
		_, _, err := w.Ingest(&Record{
			Kind: KindFuzz, App: "fuzz-clean", Grammar: "default",
			Seed: seed, Divergent: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	priors := w.Load().ShapePriors()
	if priors == nil {
		t.Fatal("corpus with verdicts must yield shape priors")
	}
	shape := QueryVerdict{Pass: "Early CSE", A: "%a = gep %p", B: "%b = gep %q"}.Shape()
	if c, ok := priors[shape]; !ok || c.Pessimistic != 1 {
		t.Fatalf("prior for %q = %+v, want one pessimistic verdict", shape, c)
	}
	seeds := w.Load().DivergentSeeds("default")
	if len(seeds) != 2 || seeds[0] != 7 || seeds[1] != 42 {
		t.Fatalf("divergent seeds = %v, want sorted unique [7 42]", seeds)
	}
	if got := w.Load().DivergentSeeds("no-pointers"); len(got) != 0 {
		t.Fatalf("grammar filter leaked seeds: %v", got)
	}
}

func TestLocClassShapes(t *testing.T) {
	cases := []struct{ a, b, pass, want string }{
		{"%1 = load i64, %p", "%2 = gep %q, 8", "LICM", "LICM|gep|load"},
		{"%2 = gep %q, 8", "%1 = load i64, %p", "LICM", "LICM|gep|load"}, // order-normalized
		{"global @g", "arg %x", "Early CSE", "Early CSE|arg|global"},
	}
	for _, c := range cases {
		got := QueryVerdict{Pass: c.pass, A: c.a, B: c.b}.Shape()
		if got != c.want {
			t.Errorf("Shape(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

// FuzzSetMemberPayloads plants an arbitrary payload as a member of a
// function's verdict set and of the warehouse index, beside members the
// store wrote itself. Loading and merging never panic and keep every
// descriptor and conviction of a member that decodes; the index lists
// the planted member exactly when its summary carries its own ID.
func FuzzSetMemberPayloads(f *testing.F) {
	f.Add([]byte(`{"q1":true,"q2":false}`), []byte(`{"id":"planted","kind":"probe","app":"app-b","shapes":["LICM|arg|gep"]}`))
	f.Add([]byte(`null`), []byte(`{"id":"other","kind":"fuzz"}`))
	f.Add([]byte(`{"q1":{"opt":1,"pess":0}}`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, verdicts, summary []byte) {
		dir := t.TempDir()
		w := openStore(t, dir)
		w.d.MergeFuncVerdicts("fhash", "check", map[string]bool{"seen": true})
		// The store's only set so far is that function's verdict set.
		sets, err := filepath.Glob(filepath.Join(dir, "sets", "*", "*"))
		if err != nil || len(sets) != 1 {
			t.Fatalf("verdict set directories: %v, %v", sets, err)
		}
		if _, err := w.d.AddToSet(filepath.Base(sets[0]), "planted", verdicts); err != nil {
			t.Fatal(err)
		}
		w.d.MergeFuncVerdicts("fhash", "check", map[string]bool{"seen": false, "merged": true})
		v := w.d.LoadFuncVerdicts("fhash", "check")
		var want map[string]bool
		if json.Unmarshal(verdicts, &want) == nil {
			for desc, convicted := range want {
				if got, seen := v[desc]; !seen || (convicted && !got) {
					t.Fatalf("planted %q (convicted %v) loads as %v, seen %v", desc, convicted, got, seen)
				}
			}
		}
		if _, seen := v["merged"]; !seen || !v["seen"] {
			t.Fatalf("merged descriptors lost: %v", v)
		}

		id, _, err := w.Ingest(probeRecord("app-a", 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.d.AddToSet(indexKey(), "planted", summary); err != nil {
			t.Fatal(err)
		}
		m := w.Load()
		if _, ok := m.byID[id]; !ok {
			t.Fatal("ingested record missing from the index")
		}
		var sum Summary
		own := json.Unmarshal(summary, &sum) == nil && sum.ID == "planted"
		if _, listed := m.byID["planted"]; listed != own || m.Len() != len(m.byID) {
			t.Fatalf("planted summary %q: listed %v, want %v", summary, listed, own)
		}
		for _, by := range []string{"pass", "shape", "func", "grammar"} {
			m.Query(QueryOptions{By: by})
		}
		m.Stats()
		m.ShapePriors()
		m.DivergentSeeds("")
	})
}

// FuzzWarehouseRecord plants an arbitrary payload under a record's
// key. Reading it never panics and returns a record only for a payload
// that hashes to the ID, and after the record is ingested it reads
// back equal to the record ingested, whatever the payload was.
func FuzzWarehouseRecord(f *testing.F) {
	rec := probeRecord("app-a", 1)
	blob, err := rec.canonical()
	if err != nil {
		f.Fatal(err)
	}
	other, err := probeRecord("app-b", 2).canonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(other)
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		w := openStore(t, t.TempDir())
		id, err := RecordID(rec)
		if err != nil {
			t.Fatal(err)
		}
		w.d.Put(recordKey(id), payload)
		got, ok := w.Load().Record(id)
		if own := diskcache.HashText(string(payload)) == id; ok != own {
			t.Fatalf("planted %q: read %v, want %v", payload, ok, own)
		}
		if ok && !reflect.DeepEqual(got, rec) {
			t.Fatalf("planted blob reads as %+v, want %+v", got, rec)
		}
		if _, _, err := w.Ingest(probeRecord("app-a", 1)); err != nil {
			t.Fatal(err)
		}
		got, ok = w.Load().Record(id)
		if !ok || !reflect.DeepEqual(got, rec) {
			t.Fatalf("after ingest over %q: read %+v (%v), want %+v", payload, got, ok, rec)
		}
	})
}
