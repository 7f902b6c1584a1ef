package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// helloSpec probes helloSrc at one worker through store.
func helloSpec(store *diskcache.Store, strat Strategy) *BenchSpec {
	return &BenchSpec{
		Name:     "hello",
		Compile:  pipeline.Config{Source: helloSrc},
		Strategy: strat,
		Workers:  1,
		Cache:    store,
	}
}

func openStore(t testing.TB, dir string) *diskcache.Store {
	t.Helper()
	store, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// A campaign set reads as the union of its members: test verdicts and
// runs round-trip through AddJSON, a second member adds to the first,
// and a member that does not decode, a verdict that claims more than
// maxUnique queries, and a run that decodes as null add nothing.
func TestCampaignSetRoundtrip(t *testing.T) {
	store := openStore(t, t.TempDir())
	key := diskcache.Key("campaign", "roundtrip")
	if u := loadCampaignSet(store.SetMembers(key)); len(u.Tests)+len(u.Runs) != 0 {
		t.Fatalf("empty set loads as %+v", u)
	}
	opt := candidateHash(nil)
	pess := candidateHash(oraql.Seq{false, true})
	first := campaignSet{
		Tests: map[string]testVerdict{opt: {OK: false, Unique: 7}},
		Runs:  map[string]*irinterp.Result{"exe-a": {Stdout: "sum=1\n", Instrs: 42}},
	}
	second := campaignSet{Tests: map[string]testVerdict{pess: {OK: true, Unique: 5}}}
	for _, m := range []campaignSet{first, second} {
		if err := store.AddJSON(key, m); err != nil {
			t.Fatal(err)
		}
	}
	for name, payload := range map[string]string{
		"undecodable": `{"tests":{"x":{"ok":"yes"}}}`,
		"too many":    fmt.Sprintf(`{"tests":{"y":{"ok":true,"unique":%d}}}`, maxUnique+1),
		"null run":    `{"runs":{"exe-b":null}}`,
	} {
		if _, err := store.AddToSet(key, diskcache.HashText(name), []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	u := loadCampaignSet(store.SetMembers(key))
	if len(u.Tests) != 2 || u.Tests[opt] != (testVerdict{OK: false, Unique: 7}) || u.Tests[pess] != (testVerdict{OK: true, Unique: 5}) {
		t.Errorf("tests = %+v, want both members' verdicts", u.Tests)
	}
	if len(u.Runs) != 1 || u.Runs["exe-a"] == nil || u.Runs["exe-a"].Stdout != "sum=1\n" || u.Runs["exe-a"].Instrs != 42 {
		t.Errorf("runs = %+v, want exe-a only", u.Runs)
	}
}

// campaignSetKey returns the key of the one campaign set in store: the
// set whose members carry runs.
func campaignSetKey(t testing.TB, store *diskcache.Store) string {
	t.Helper()
	sets, err := filepath.Glob(filepath.Join(store.Dir(), "sets", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for _, set := range sets {
		if len(loadCampaignSet(store.SetMembers(filepath.Base(set))).Runs) > 0 {
			if key != "" {
				t.Fatal("more than one campaign set")
			}
			key = filepath.Base(set)
		}
	}
	if key == "" {
		t.Fatal("no campaign set")
	}
	return key
}

// copyStore copies the files of the store at src into a new directory.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// FuzzCampaignSetMembers plants an arbitrary payload in a campaign set
// beside the member its seeding campaign added, under a name that
// sorts first, and reprobes the unchanged program through a fresh
// handle. The reprobe never panics, never serves a run that decoded as
// null, and never serves a final build whose records contradict the
// final sequence or its counters (finalRecordsHold). When the payload
// carries no campaign state (it does not decode, or holds no test
// verdict and no run but null ones), the reprobe runs no test, makes
// no put, and ends as the seeding campaign did, with its final build
// served from its TU artifact. The seeds include members as a store
// from before final builds became TU artifacts holds them, with the
// final in a "finals" map that decoding ignores; planted TU artifacts
// are FuzzTUArtifact's (internal/pipeline).
func FuzzCampaignSetMembers(f *testing.F) {
	seedDir := f.TempDir()
	seedStore := openStore(f, seedDir)
	seeded, err := Probe(helloSpec(seedStore, nil))
	if err != nil {
		f.Fatal(err)
	}
	key := campaignSetKey(f, seedStore)
	var member []byte
	for _, data := range seedStore.SetMembers(key) {
		member = data
	}
	f.Add([]byte(`null`))
	f.Add(member[:len(member)/2])
	f.Add([]byte(fmt.Sprintf(`{"runs":{%q:null}}`, seeded.Baseline.Compile.ExeHash())))
	f.Add([]byte(fmt.Sprintf(`{"tests":{%q:{"ok":"yes","unique":1}}}`, candidateHash(nil))))
	// Old members: the seeding final in the old layout, broken one way
	// each, then intact under another sequence's hash, and another
	// sequence's final under this one's.
	final := candidateHash(seeded.FinalSeq)
	oldFinal := func(h string, cr *pipeline.CompileResult, edit func(ir *string, rr *oraql.RenderedRecords)) {
		ir, rr := cr.Host.Module.String(), oraql.Render(cr.Records())
		edit(&ir, rr)
		data, err := json.Marshal(map[string]any{"finals": map[string]any{
			h: map[string]any{"host": map[string]any{"ir": ir, "oraql": cr.ORAQLStats(), "records": rr}}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fin := seeded.Final.Compile
	oldFinal(final, fin, func(ir *string, _ *oraql.RenderedRecords) { *ir = (*ir)[:len(*ir)/2] })
	oldFinal(final, fin, func(_ *string, rr *oraql.RenderedRecords) { rr.Records[0].Optimistic = !rr.Records[0].Optimistic })
	oldFinal(final, fin, func(_ *string, rr *oraql.RenderedRecords) { rr.Records = rr.Records[:len(rr.Records)-1] })
	oldFinal(final, fin, func(_ *string, rr *oraql.RenderedRecords) { rr.Records[0].CacheHits++ })
	oldFinal(candidateHash(oraql.Seq{false}), fin, func(*string, *oraql.RenderedRecords) {})
	other, err := pipeline.Compile(pipeline.Config{Name: "hello", Source: helloSrc,
		ORAQL: &oraql.Options{Seq: make(oraql.Seq, 64)}})
	if err != nil {
		f.Fatal(err)
	}
	oldFinal(final, other, func(*string, *oraql.RenderedRecords) {})
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := copyStore(t, seedDir)
		if _, err := openStore(t, dir).AddToSet(key, "+planted", payload); err != nil {
			t.Fatal(err)
		}
		store := openStore(t, dir)
		res, err := Probe(helloSpec(store, nil))
		if err == nil && (res.Baseline.Run == nil || res.Final.Run == nil) {
			t.Fatal("the reprobe served a null run")
		}
		if err == nil {
			finalRecordsHold(t, res)
		}
		var planted campaignSet
		if json.Unmarshal(payload, &planted) == nil {
			if len(planted.Tests) > 0 {
				return
			}
			for _, r := range planted.Runs {
				if r != nil {
					return
				}
			}
		}
		if err != nil {
			t.Fatalf("reprobe beside %q: %v", payload, err)
		}
		if res.TestsRun != 0 {
			t.Errorf("reprobe beside %q ran %d tests, want 0", payload, res.TestsRun)
		}
		if puts := store.Counters().Puts; puts != 0 {
			t.Errorf("reprobe beside %q made %d puts, want 0", payload, puts)
		}
		if res.Final.Compile.DiskHits() == 0 {
			t.Errorf("reprobe beside %q compiled its final build", payload)
		}
		if r, s := res.FinalSeq.String(), seeded.FinalSeq.String(); r != s {
			t.Errorf("FinalSeq %q, seeding campaign %q", r, s)
		}
		if r, s := res.Final.Compile.ExeHash(), seeded.Final.Compile.ExeHash(); r != s {
			t.Errorf("final exe hash %.12s, seeding campaign %.12s", r, s)
		}
		if r, s := res.Final.Compile.Host.Module.String(), seeded.Final.Compile.Host.Module.String(); r != s {
			t.Error("final IR differs from the seeding campaign's")
		}
		if r, s := guiltySet(res), guiltySet(seeded); fmt.Sprint(r) != fmt.Sprint(s) {
			t.Errorf("convictions %v, seeding campaign %v", r, s)
		}
	})
}

// finalRecordsHold checks a campaign's final build against its final
// sequence, as a restored final must be checked before it is served:
// per target, record i has Index i and the sequence's answer at i,
// there is one record per unique query, and the records' cache hits
// sum to the cached counters by answer.
func finalRecordsHold(t *testing.T, res *Result) {
	t.Helper()
	for _, ts := range []*pipeline.TargetStats{res.Final.Compile.Host, res.Final.Compile.Device} {
		if ts == nil {
			continue
		}
		recs, s := ts.ORAQL.Records(), ts.ORAQL.Stats()
		var hits [2]int
		for i, rec := range recs {
			want := i >= len(res.FinalSeq) || res.FinalSeq[i]
			if rec.Index != i || rec.Optimistic != want {
				t.Fatalf("%s: final record %d has index %d and answer %t, want %d and %t",
					ts.Module.Name, i, rec.Index, rec.Optimistic, i, want)
			}
			if rec.Optimistic {
				hits[1] += rec.CacheHits
			} else {
				hits[0] += rec.CacheHits
			}
		}
		if len(recs) != s.Unique() || hits != [2]int{s.CachedPessimistic, s.CachedOptimistic} {
			t.Fatalf("%s: %d final records with cache hits %v, counters %+v", ts.Module.Name, len(recs), hits, s)
		}
	}
}

// Campaigns of one program that run at once, through two store handles
// on one directory as two processes would, lose none of each other's
// state: half probe with chunked and half with freq, so they consume
// different candidates. A reprobe with either strategy through a fresh
// handle then finds every test verdict and both runs in its campaign
// set and its final build in its TU artifact, and writes nothing.
func TestConcurrentCampaignsLoseNothing(t *testing.T) {
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 2 {
		store := openStore(t, dir)
		for i := range 4 {
			strat := Chunked
			if i%2 == 1 {
				strat = FreqSpace
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := Probe(helloSpec(store, strat)); err != nil {
					errs <- fmt.Errorf("%s: %w", strat.Name(), err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Chunked, FreqSpace} {
		store := openStore(t, dir)
		res, err := Probe(helloSpec(store, strat))
		if err != nil {
			t.Fatal(err)
		}
		if res.TestsRun != 0 || res.RunsReplayed != 2 {
			t.Errorf("%s reprobe ran %d tests and replayed %d runs, want 0 and 2", strat.Name(), res.TestsRun, res.RunsReplayed)
		}
		if res.Final.Compile.DiskHits() == 0 {
			t.Errorf("%s reprobe compiled its final build", strat.Name())
		}
		if c := store.Counters(); c.Puts != 0 {
			t.Errorf("%s reprobe made %d puts, want 0", strat.Name(), c.Puts)
		}
	}
}

// A campaign that dumps its queries compiles its final build live,
// since only a compile that runs can print, though a TU artifact holds
// the final; it files nothing, since a compile that prints is never
// filed and the campaign set holds every test and run.
func TestDumpingReprobeCompilesItsFinal(t *testing.T) {
	dir := t.TempDir()
	if _, err := Probe(helloSpec(openStore(t, dir), nil)); err != nil {
		t.Fatal(err)
	}
	store := openStore(t, dir)
	var dump bytes.Buffer
	spec := helloSpec(store, nil)
	spec.ORAQL.Dump = oraql.DumpFlags{First: true, Pessimistic: true}
	spec.ORAQL.Out = &dump
	res, err := Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Compile.DiskHits() != 0 || !strings.Contains(dump.String(), "[ORAQL] Pessimistic query") {
		t.Errorf("dumping reprobe served its final from the set (%d disk hits) or printed no dump:\n%s",
			res.Final.Compile.DiskHits(), dump.String())
	}
	if puts := store.Counters().Puts; puts != 0 {
		t.Errorf("dumping reprobe made %d puts, want 0", puts)
	}
}
