package diskcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t)
	key := Key("fn", "module", "pipeline", "chain", "", "f", "define ...")
	payload := []byte("optimized function body")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit before put")
	}
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestKeyDerivation(t *testing.T) {
	// Different splits of the same bytes must not collide.
	if Key("d", "ab", "c") == Key("d", "a", "bc") {
		t.Fatal("length prefixing failed: split collision")
	}
	if Key("d1", "x") == Key("d2", "x") {
		t.Fatal("domains collide")
	}
	if Key("d", "x") != Key("d", "x") {
		t.Fatal("key not deterministic")
	}
}

// A truncated entry must read as a miss, never an error or torn data.
func TestTruncatedEntryIsMiss(t *testing.T) {
	s := open(t)
	key := Key("fn", "content")
	s.Put(key, []byte("a payload long enough to truncate meaningfully"))
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 8, 15, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Fatalf("truncation to %d bytes served %q", n, got)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("truncated entry (%d bytes) not removed", n)
		}
		// Restore for the next truncation point.
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counters(); c.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
}

// A bit flip anywhere in the payload must fail the checksum.
func TestCorruptPayloadIsMiss(t *testing.T) {
	s := open(t)
	key := Key("fn", "content2")
	s.Put(key, []byte("payload under checksum"))
	p := s.path(key)
	data, _ := os.ReadFile(p)
	data[len(data)-40] ^= 0x01 // inside the payload region
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt payload served")
	}
}

// overflowEntry is an entry for key whose length field reads 2^64-22
// with 10 bytes after it: length plus checksum size wraps to 10.
func overflowEntry(key string) []byte {
	data := encodeEntry(key, nil)
	off := 12 + len(key)
	binary.LittleEndian.PutUint64(data[off:], 1<<64-22)
	return append(data[:off+8], make([]byte, 10)...)
}

// A corrupt length field must read as a miss, not panic the reader.
func TestLengthOverflowIsMiss(t *testing.T) {
	s := open(t)
	key := Key("fn", "overflow")
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), overflowEntry(key), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("overflowing length served %q", got)
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", c.Corrupt)
	}
}

// FuzzDecodeEntry: arbitrary bytes never panic the decoder, any key
// and payload survive an encode/decode round trip, and a byte flipped
// anywhere in a valid entry never decodes to another payload.
func FuzzDecodeEntry(f *testing.F) {
	key := Key("fn", "overflow")
	f.Add(overflowEntry(key), key, []byte("payload"), uint(0), byte(1))
	f.Add(encodeEntry("k", []byte("p")), "k", []byte{}, uint(13), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, key string, payload []byte, at uint, mask byte) {
		_, _ = decodeEntry(data, key)

		enc := encodeEntry(key, payload)
		got, err := decodeEntry(enc, key)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %q, %v; want %q", got, err, payload)
		}
		if mask == 0 {
			mask = 1
		}
		enc[at%uint(len(enc))] ^= mask
		if got, err := decodeEntry(enc, key); err == nil && !bytes.Equal(got, payload) {
			t.Fatalf("flipped byte %d decoded to %q, want %q or an error", at%uint(len(enc)), got, payload)
		}
	})
}

// An entry written under a different schema version must be invisible.
func TestSchemaBumpInvalidates(t *testing.T) {
	s := open(t)
	key := Key("fn", "content3")
	s.Put(key, []byte("old world"))
	p := s.path(key)
	data, _ := os.ReadFile(p)
	binary.LittleEndian.PutUint32(data[4:8], SchemaVersion+1)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("foreign-schema entry served")
	}
	// And the key itself changes with the version (simulated via domain).
	if Key("fn", "x") == Key("fn2", "x") {
		t.Fatal("unexpected collision")
	}
}

// An entry stored under one key must not answer for another (hash
// sharding puts colliding prefixes in the same directory).
func TestKeyMismatchIsMiss(t *testing.T) {
	s := open(t)
	k1 := Key("fn", "a")
	k2 := Key("fn", "b")
	s.Put(k1, []byte("for k1"))
	// Copy k1's file into k2's slot, simulating a mixed-up entry.
	data, _ := os.ReadFile(s.path(k1))
	if err := os.MkdirAll(filepath.Dir(s.path(k2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("entry with mismatched embedded key served")
	}
}

// Two stores (standing in for two processes) hammering the same
// directory must never serve a torn entry: every successful Get
// returns one of the complete payloads.
func TestConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	payload := func(k, gen int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("k%d-g%d;", k, gen)), 100)
	}
	valid := func(k int, got []byte) bool {
		for gen := 0; gen < 4; gen++ {
			if bytes.Equal(got, payload(k, gen)) {
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for _, s := range []*Store{s1, s2} {
		wg.Add(2)
		go func(s *Store) { // writer
			defer wg.Done()
			for gen := 0; gen < 4; gen++ {
				for k := 0; k < keys; k++ {
					s.Put(Key("race", fmt.Sprint(k)), payload(k, gen))
				}
			}
		}(s)
		go func(s *Store) { // reader
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % keys
				if got, ok := s.Get(Key("race", fmt.Sprint(k))); ok && !valid(k, got) {
					errc <- fmt.Errorf("torn read for key %d: %q...", k, got[:20])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// GC under size pressure must evict cold entries and keep hot ones.
func TestGCKeepsHotEntries(t *testing.T) {
	s := open(t, WithMaxBytes(8*1024))
	payload := bytes.Repeat([]byte("x"), 1024)
	old := time.Now().Add(-time.Hour)
	var cold []string
	for i := 0; i < 12; i++ {
		k := Key("gc", fmt.Sprintf("cold%d", i))
		s.Put(k, payload)
		// Age the entry so mtime ordering is unambiguous.
		if err := os.Chtimes(s.path(k), old, old); err != nil {
			t.Fatal(err)
		}
		cold = append(cold, k)
	}
	hot := Key("gc", "hot")
	s.Put(hot, payload)
	s.GCNow()
	if _, ok := s.Get(hot); !ok {
		t.Fatal("hot entry evicted")
	}
	evicted := 0
	for _, k := range cold {
		if _, ok := s.Get(k); !ok {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no cold entries evicted under size pressure")
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatalf("evictions not counted: %+v", c)
	}
	if _, bytes := s.Usage(); bytes > 8*1024 {
		t.Fatalf("usage %d still above budget", bytes)
	}
}

func TestCampaignState(t *testing.T) {
	s := open(t)
	s.MergeFuncVerdicts("fhash", "check", map[string]bool{"q1": true, "q2": false})
	s.MergeFuncVerdicts("fhash", "check", map[string]bool{"q1": true})
	// A survival after a conviction leaves the descriptor convicted.
	s.MergeFuncVerdicts("fhash", "check", map[string]bool{"q2": true})
	v := s.LoadFuncVerdicts("fhash", "check")
	if len(v) != 2 {
		t.Fatalf("set = %v, want q1 and q2", v)
	}
	if convicted, seen := v["q1"]; !seen || convicted {
		t.Fatalf("q1 = %v, %v; want seen, never convicted", convicted, seen)
	}
	if !v["q2"] {
		t.Fatalf("q2 lost its conviction: %v", v)
	}
	if s.LoadFuncVerdicts("other", "check") != nil {
		t.Fatal("verdicts leak across function hashes")
	}
}

// A merge adds a member only when the set grows: a descriptor it has
// not seen, or the first conviction of one it has. The member holds
// only that news and is named by the hash of its JSON. Any other merge
// writes nothing, so an unchanged reprobe leaves the store as it was.
func TestMergeFuncVerdictsPublishesOnlyNews(t *testing.T) {
	s := open(t)
	key := funcVerdictsKey("fhash", "check")
	s.MergeFuncVerdicts("fhash", "check", map[string]bool{"q1": true, "q2": false})
	if n := len(s.SetMembers(key)); n != 1 {
		t.Fatalf("first merge: %d members, want 1", n)
	}
	puts := s.Counters().Puts
	for _, obs := range []map[string]bool{
		{"q1": true, "q2": false},
		{"q1": true},
		{"q2": true},
		{},
	} {
		s.MergeFuncVerdicts("fhash", "check", obs)
	}
	if got := s.Counters().Puts; got != puts {
		t.Fatalf("merges that add nothing made %d puts", got-puts)
	}
	if n := len(s.SetMembers(key)); n != 1 {
		t.Fatalf("merges that add nothing left %d members, want 1", n)
	}

	for i, c := range []struct {
		obs  map[string]bool
		news string
	}{
		{map[string]bool{"q1": false}, `{"q1":true}`},             // convicts a seen descriptor
		{map[string]bool{"q1": true, "q3": true}, `{"q3":false}`}, // adds a new one
	} {
		s.MergeFuncVerdicts("fhash", "check", c.obs)
		if got := s.Counters().Puts; got != puts+int64(i+1) {
			t.Fatalf("merge %v: %d puts, want exactly one", c.obs, got-puts-int64(i))
		}
		m := s.SetMembers(key)
		if len(m) != i+2 {
			t.Fatalf("merge %v: %d members, want %d", c.obs, len(m), i+2)
		}
		if got := string(m[HashText(c.news)]); got != c.news {
			t.Fatalf("merge %v: news member holds %q, want %s", c.obs, got, c.news)
		}
	}
	v := s.LoadFuncVerdicts("fhash", "check")
	if !v["q1"] || !v["q2"] || v["q3"] || len(v) != 3 {
		t.Fatalf("set = %v, want q1 and q2 convicted, q3 seen", v)
	}
}

// GC racing a concurrent writer (the multi-process shape: two Store
// handles on one directory, one sweeping under size pressure while the
// other republishes and immediately re-reads hot keys). A republished
// entry carries a fresh mtime, so the sweeping store's stale scan must
// not evict it out from under the reader: every Get issued right after
// a Put must hit. Cold filler entries keep the store over budget so
// every GCNow actually evicts.
func TestGCRacesConcurrentWriter(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir, WithMaxBytes(16*1024))
	if err != nil {
		t.Fatal(err)
	}
	sweeper, err := Open(dir, WithMaxBytes(16*1024))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 512)
	old := time.Now().Add(-time.Hour)
	age := func(s *Store, k string) {
		_ = os.Chtimes(s.path(k), old, old)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 2)

	wg.Add(1)
	go func() { // filler: cold entries pumping size pressure
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := Key("gcrace", "cold", fmt.Sprint(i%64))
			writer.Put(k, payload)
			age(writer, k)
		}
	}()
	wg.Add(1)
	go func() { // sweeper under constant pressure
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sweeper.GCNow()
		}
	}()
	wg.Add(1)
	go func() { // hot writer: republish then read back immediately
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 400; i++ {
			k := Key("gcrace", "hot", fmt.Sprint(i%4))
			writer.Put(k, payload)
			if _, ok := writer.Get(k); !ok {
				errc <- fmt.Errorf("iteration %d: fresh entry evicted before read-back", i)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if c := sweeper.Counters(); c.Evictions == 0 {
		t.Fatal("sweeper never evicted; the race was not exercised")
	}
}
