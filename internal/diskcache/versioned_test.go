package diskcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

func TestVersionedRoundtrip(t *testing.T) {
	s := open(t)
	key := Key("state", "record")
	if _, v, ok := s.LoadVersioned(key); ok || v != 0 {
		t.Fatalf("fresh key: got version %d, ok=%v", v, ok)
	}
	if err := s.CompareAndUpdate(key, 0, []byte("v1")); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	got, v, ok := s.LoadVersioned(key)
	if !ok || v != 1 || string(got) != "v1" {
		t.Fatalf("LoadVersioned = %q, %d, %v", got, v, ok)
	}
	if err := s.CompareAndUpdate(key, 1, []byte("v2")); err != nil {
		t.Fatalf("second publish: %v", err)
	}
	got, v, ok = s.LoadVersioned(key)
	if !ok || v != 2 || string(got) != "v2" {
		t.Fatalf("LoadVersioned = %q, %d, %v", got, v, ok)
	}
}

// A stale-version publish must fail with ErrCASConflict and leave the
// winner's payload intact.
func TestCompareAndUpdateConflict(t *testing.T) {
	s := open(t)
	key := Key("state", "contested")
	if err := s.CompareAndUpdate(key, 0, []byte("winner")); err != nil {
		t.Fatal(err)
	}
	err := s.CompareAndUpdate(key, 0, []byte("loser"))
	if !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale publish: got %v, want ErrCASConflict", err)
	}
	got, v, _ := s.LoadVersioned(key)
	if string(got) != "winner" || v != 1 {
		t.Fatalf("after conflict: %q at %d", got, v)
	}
	if c := s.Counters(); c.CASConflicts == 0 {
		t.Fatal("conflict not counted")
	}
}

// Superseded payloads are tombstoned after a publish (modulo the
// forensic window), but every slot name survives to pin its version.
func TestVersionedPrunesOldVersions(t *testing.T) {
	s := open(t)
	key := Key("state", "pruned")
	for v := uint64(0); v < 6; v++ {
		if err := s.CompareAndUpdate(key, v, []byte(fmt.Sprintf("gen%d", v+1))); err != nil {
			t.Fatal(err)
		}
	}
	live, slots := 0, s.scanVersions(key)
	for _, slot := range slots {
		if slot.live {
			live++
		}
	}
	if live > 1+keepVersions {
		t.Fatalf("%d live versions after 6 publishes: %v", live, slots)
	}
	if len(slots) != 6 {
		t.Fatalf("%d slots on disk, want all 6 names pinned: %v", len(slots), slots)
	}
	// Stale CAS against a tombstoned slot must still lose.
	if err := s.CompareAndUpdate(key, 1, []byte("stale")); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale publish into tombstoned slot: got %v, want ErrCASConflict", err)
	}
}

// A corrupt newest version reads as a miss at its version (never a
// stale older payload), and the record keeps making progress on top.
func TestVersionedCorruptDegrades(t *testing.T) {
	s := open(t)
	key := Key("state", "corrupt")
	if err := s.CompareAndUpdate(key, 0, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.CompareAndUpdate(key, 1, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	p := s.versionedPath(key, 2)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, v, ok := s.LoadVersioned(key)
	if ok || v != 2 {
		t.Fatalf("corrupt newest: got %q, %d, %v; want miss at version 2", got, v, ok)
	}
	if err := s.CompareAndUpdate(key, v, []byte("recovered")); err != nil {
		t.Fatalf("rebuild after corruption: %v", err)
	}
	got, v, ok = s.LoadVersioned(key)
	if !ok || v != 3 || string(got) != "recovered" {
		t.Fatalf("after rebuild: %q, %d, %v", got, v, ok)
	}
}

// The CAS conflict storm: several goroutines over two Store handles
// (standing in for sibling serve instances on one directory) increment
// a shared counter through UpdateVersioned. Every update must survive —
// the exact failure mode the old read-merge-write lost. Run under
// -race this also oracles the in-process paths.
func TestUpdateVersionedConflictStorm(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("state", "storm")
	const writers, iters = 4, 25
	var wg sync.WaitGroup
	errc := make(chan error, 2*writers)
	for _, s := range []*Store{s1, s2} {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(s *Store) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					err := s.UpdateVersioned(key, 0, func(old []byte) ([]byte, error) {
						n := 0
						if old != nil {
							if err := json.Unmarshal(old, &n); err != nil {
								return nil, err
							}
						}
						return json.Marshal(n + 1)
					})
					if err != nil {
						errc <- err
						return
					}
				}
			}(s)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	data, _, ok := s1.LoadVersioned(key)
	if !ok {
		t.Fatal("counter vanished")
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		t.Fatal(err)
	}
	if want := 2 * writers * iters; n != want {
		t.Fatalf("lost updates: counter = %d, want %d", n, want)
	}
}

// MergeFuncVerdicts rides the same CAS loop: concurrent merges from
// two handles must not lose descriptors. Each writer adds descriptors
// of its own on every iteration, so every merge publishes, and one
// descriptor both writers share ends convicted once either convicts
// it.
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

// A newest slot that cannot be read (here a directory in its place)
// reads as a miss at its version, and the next publish supersedes it.
// A rescan would pick the same slot again and never return.
func TestVersionedUnreadableSlotMisses(t *testing.T) {
	s := open(t)
	key := Key("state", "unreadable")
	if err := s.CompareAndUpdate(key, 0, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(s.versionedPath(key, 2), 0o755); err != nil {
		t.Fatal(err)
	}
	type load struct {
		v  uint64
		ok bool
	}
	done := make(chan load, 1)
	go func() {
		_, v, ok := s.LoadVersioned(key)
		done <- load{v, ok}
	}()
	select {
	case got := <-done:
		if got.ok || got.v != 2 {
			t.Fatalf("unreadable newest: version %d, ok=%v; want a miss at 2", got.v, got.ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LoadVersioned did not return on an unreadable slot")
	}
	if err := s.UpdateVersioned(key, 0, func(old []byte) ([]byte, error) {
		return []byte("recovered"), nil
	}); err != nil {
		t.Fatalf("publish over an unreadable slot: %v", err)
	}
	got, v, ok := s.LoadVersioned(key)
	if !ok || v != 3 || string(got) != "recovered" {
		t.Fatalf("after publish: %q, %d, %v", got, v, ok)
	}
}
