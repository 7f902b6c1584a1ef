package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSetRoundtrip(t *testing.T) {
	s := open(t)
	key := Key("state", "record")
	if m := s.SetMembers(key); m != nil {
		t.Fatalf("fresh set: %v", m)
	}
	for _, name := range []string{"a", "b"} {
		if added, err := s.AddToSet(key, name, []byte("payload "+name)); err != nil || !added {
			t.Fatalf("add %s: added=%v, err=%v", name, added, err)
		}
	}
	m := s.SetMembers(key)
	if len(m) != 2 || string(m["a"]) != "payload a" || string(m["b"]) != "payload b" {
		t.Fatalf("members = %q", m)
	}
	if s.SetMembers(Key("state", "other")) != nil {
		t.Fatal("members leak across keys")
	}
	for _, name := range []string{"", ".", "..", "x/y", `x\y`} {
		if _, err := s.AddToSet(key, name, nil); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

// A name is never replaced: a second add of it leaves the first
// payload, writes nothing and reports nothing added.
func TestAddToSetNeverReplacesAName(t *testing.T) {
	s := open(t)
	key := Key("state", "contested")
	if added, err := s.AddToSet(key, "a", []byte("first")); err != nil || !added {
		t.Fatalf("first add: added=%v, err=%v", added, err)
	}
	puts := s.Counters().Puts
	if added, err := s.AddToSet(key, "a", []byte("second")); err != nil || added {
		t.Fatalf("re-add: added=%v, err=%v", added, err)
	}
	if got := s.Counters().Puts; got != puts {
		t.Fatalf("re-add made %d puts", got-puts)
	}
	if m := s.SetMembers(key); len(m) != 1 || string(m["a"]) != "first" {
		t.Fatalf("after re-add: %q", m)
	}
}

// Two handles (standing in for two processes on one directory) with
// four writers each add the same names at once: every name ends up a
// member, and exactly one of its adds reports added.
func TestAddToSetRacingHandles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("state", "race")
	const writers, names = 4, 32
	var added [names]atomic.Int32
	var wg sync.WaitGroup
	for _, s := range []*Store{s1, s2} {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(s *Store) {
				defer wg.Done()
				for i := 0; i < names; i++ {
					ok, err := s.AddToSet(key, fmt.Sprintf("m%02d", i), []byte(fmt.Sprint(i)))
					if err != nil {
						t.Errorf("add m%02d: %v", i, err)
					}
					if ok {
						added[i].Add(1)
					}
				}
			}(s)
		}
	}
	wg.Wait()
	for i := range added {
		if n := added[i].Load(); n != 1 {
			t.Errorf("m%02d: %d adds reported added, want exactly 1", i, n)
		}
	}
	m := s1.SetMembers(key)
	if len(m) != names {
		t.Fatalf("%d members, want %d", len(m), names)
	}
	for i := 0; i < names; i++ {
		if got := string(m[fmt.Sprintf("m%02d", i)]); got != fmt.Sprint(i) {
			t.Fatalf("m%02d = %q", i, got)
		}
	}
}

// A corrupt member reads as absent and is removed, the other members
// still read, and its name can be added again. A member file copied
// under another name fails its self-check the same way.
func TestSetCorruptMemberIsDropped(t *testing.T) {
	s := open(t)
	key := Key("state", "corrupt")
	for _, name := range []string{"a", "b", "c"} {
		if _, err := s.AddToSet(key, name, []byte("payload "+name)); err != nil {
			t.Fatal(err)
		}
	}
	pb := filepath.Join(s.setDir(key), "b")
	data, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(pb, data, 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(s.setDir(key), "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.setDir(key), "d"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	m := s.SetMembers(key)
	if len(m) != 2 || string(m["a"]) != "payload a" || string(m["c"]) != "payload c" {
		t.Fatalf("members = %q, want a and c", m)
	}
	for _, name := range []string{"b", "d"} {
		if _, err := os.Stat(filepath.Join(s.setDir(key), name)); !os.IsNotExist(err) {
			t.Fatalf("damaged member %s not removed", name)
		}
	}
	if c := s.Counters(); c.Corrupt != 2 {
		t.Fatalf("corrupt = %d, want 2", c.Corrupt)
	}
	if added, err := s.AddToSet(key, "b", []byte("payload b")); err != nil || !added {
		t.Fatalf("re-add after corruption: added=%v, err=%v", added, err)
	}
	if m := s.SetMembers(key); len(m) != 3 || string(m["b"]) != "payload b" {
		t.Fatalf("after re-add: %q", m)
	}
}

// A directory in a member's place cannot be read: SetMembers skips it
// and returns, and the name stays taken.
func TestSetDirectoryMemberIsSkipped(t *testing.T) {
	s := open(t)
	key := Key("state", "dir")
	if _, err := s.AddToSet(key, "a", []byte("payload a")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(s.setDir(key), "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string][]byte, 1)
	go func() { done <- s.SetMembers(key) }()
	select {
	case m := <-done:
		if len(m) != 1 || string(m["a"]) != "payload a" {
			t.Fatalf("members = %q, want only a", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SetMembers did not return with a directory in a member's place")
	}
	if added, err := s.AddToSet(key, "b", []byte("payload b")); err != nil || added {
		t.Fatalf("add over a directory: added=%v, err=%v", added, err)
	}
}

// GC under size pressure removes whole members, never truncating one,
// while a second handle adds and reads: a set never returns a member
// that was not added, or another payload than the one added.
func TestSetGCRemovesWholeMembers(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir, WithMaxBytes(16*1024))
	if err != nil {
		t.Fatal(err)
	}
	sweeper, err := Open(dir, WithMaxBytes(16*1024))
	if err != nil {
		t.Fatal(err)
	}
	key := Key("state", "gc")
	payload := func(name string) []byte { return bytes.Repeat([]byte(name), 64) }
	old := time.Now().Add(-time.Hour)
	const members = 200

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
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
	go func() { // reader: every member returned is one that was added
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, p := range sweeper.SetMembers(key) {
				var i int
				if _, err := fmt.Sscanf(name, "m%03d", &i); err != nil || i >= members || !bytes.Equal(p, payload(name)) {
					t.Errorf("set returned a member never added: %q = %q", name, p)
					return
				}
			}
		}
	}()
	for i := 0; i < members; i++ {
		name := fmt.Sprintf("m%03d", i)
		if _, err := writer.AddToSet(key, name, payload(name)); err != nil {
			t.Errorf("add %s: %v", name, err)
		}
		// Age the member so the sweeper judges it cold.
		_ = os.Chtimes(filepath.Join(writer.setDir(key), name), old, old)
	}
	close(stop)
	wg.Wait()

	sweeper.GCNow()
	if c := sweeper.Counters(); c.Evictions == 0 {
		t.Fatal("no members evicted under size pressure")
	}
	ents, err := os.ReadDir(writer.setDir(key))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 || len(ents) == members {
		t.Fatalf("%d of %d members left; want some evicted, some kept", len(ents), members)
	}
	m := writer.SetMembers(key)
	if len(m) != len(ents) {
		t.Fatalf("%d member files, %d readable: GC left a damaged member", len(ents), len(m))
	}
	if n := writer.Counters().Corrupt + sweeper.Counters().Corrupt; n != 0 {
		t.Fatalf("%d damaged members read", n)
	}
	if _, bytes := writer.Usage(); bytes > 16*1024 {
		t.Fatalf("usage %d still above budget", bytes)
	}
}

// Concurrent merges from two handles lose no descriptor: each writer
// adds descriptors of its own on every iteration, so every merge adds
// a member, and one descriptor both writers share ends convicted once
// either convicts it.
func TestMergeFuncVerdictsConcurrent(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 20
	var wg sync.WaitGroup
	for w, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.MergeFuncVerdicts("fhash", "check", map[string]bool{
					fmt.Sprintf("w%d-ok-%d", w, i):  true,
					fmt.Sprintf("w%d-bad-%d", w, i): false,
					"shared":                        i != w,
				})
			}
		}(w, s)
	}
	wg.Wait()
	v := s1.LoadFuncVerdicts("fhash", "check")
	if want := 2*2*iters + 1; len(v) != want {
		t.Fatalf("lost verdict updates: %d descriptors, want %d", len(v), want)
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < iters; i++ {
			if convicted, seen := v[fmt.Sprintf("w%d-ok-%d", w, i)]; !seen || convicted {
				t.Fatalf("writer %d iteration %d: survivor %v, %v", w, i, convicted, seen)
			}
			if !v[fmt.Sprintf("w%d-bad-%d", w, i)] {
				t.Fatalf("writer %d iteration %d: conviction lost", w, i)
			}
		}
	}
	if !v["shared"] {
		t.Fatal("shared descriptor lost its conviction")
	}
}
