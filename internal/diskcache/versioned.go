package diskcache

// Versioned entries: optimistic-concurrency shared state.
//
// Immutable artifacts (objects/) are published blind — two writers of
// the same key race benignly because either payload is a correct value
// for the key, and the last rename wins. Mutable shared state (the
// per-function verdict sets, the warehouse manifest) has no such luck:
// a read-merge-write from two processes loses one side's update.
// Versioned entries close that hole with the optimistic
// compare-and-update discipline: read the current version, recompute,
// publish as version+1, retry on conflict.
//
// Each version is its own entry file, versioned/xx/<key>.<%016x v>,
// self-checked like every other entry. Publishing uses link(2) from a
// staged tmp file: link fails with EEXIST when another process already
// published that version, which IS the compare-and-swap — no locks, no
// torn state, and the loser re-reads and retries.
//
// Superseded versions are truncated to zero-byte tombstones, never
// unlinked. The name is the lock: if a pruner removed version v+1
// outright, a writer still holding version v from an arbitrarily old
// read could link a stale payload into the reclaimed slot and silently
// erase every update since (the ABA hazard). A tombstone keeps the slot
// pinned — any stale link hits EEXIST — while releasing the payload
// bytes. Tombstones cost one empty directory entry per superseded
// version. That growth stays negligible next to the artifact payloads
// because every mutable record here publishes only when its content
// changes: a function's verdict set when it gains a descriptor or a
// conviction, the warehouse manifest when it gains a record. A reprobe
// of an unchanged program publishes no version at all.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// ErrCASConflict reports that another writer published the version this
// CompareAndUpdate targeted; re-read and retry.
var ErrCASConflict = errors.New("diskcache: version conflict")

// keepVersions is how many superseded versions keep their payload (not
// just their tombstone) after a publish, as a cheap forensic window.
const keepVersions = 1

// versionedPath is the entry file for one (key, version) pair.
func (s *Store) versionedPath(key string, version uint64) string {
	return filepath.Join(s.dir, "versioned", key[:2], fmt.Sprintf("%s.%016x", key, version))
}

// versionedEntryKey is the identity embedded in the entry header, so a
// file moved between version slots fails its self-check.
func versionedEntryKey(key string, version uint64) string {
	return fmt.Sprintf("%s.%016x", key, version)
}

// versionSlot is one published version of a key. live=false marks a
// tombstone: the payload is gone but the name still pins the slot.
type versionSlot struct {
	v    uint64
	live bool
}

// scanVersions lists every version slot of key, tombstones included,
// unsorted.
func (s *Store) scanVersions(key string) []versionSlot {
	dir := filepath.Join(s.dir, "versioned", key[:2])
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []versionSlot
	for _, e := range ents {
		rest, ok := strings.CutPrefix(e.Name(), key+".")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(rest, 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, versionSlot{v: v, live: info.Size() > 0})
	}
	return out
}

// LoadVersioned returns the payload and version of key's newest slot.
// ok=false with version>0 means the slot exists but its payload is gone
// (tombstoned by pruning, GC pressure, or corruption); the caller must
// still build its next CompareAndUpdate on that version, never on an
// older live one — an older payload is stale state, not a fallback.
// ok=false with version 0 means the key has never been published.
func (s *Store) LoadVersioned(key string) (payload []byte, version uint64, ok bool) {
	for {
		var newest versionSlot
		for _, slot := range s.scanVersions(key) {
			if slot.v > newest.v {
				newest = slot
			}
		}
		if newest.v == 0 {
			s.misses.Add(1)
			return nil, 0, false
		}
		if !newest.live {
			s.misses.Add(1)
			return nil, newest.v, false
		}
		path := s.versionedPath(key, newest.v)
		data, err := os.ReadFile(path)
		if err != nil {
			// Unreadable (a directory in the slot, EIO, EACCES): a miss
			// at this version, so the next publish supersedes the slot.
			// A rescan would pick the same slot again, forever.
			s.misses.Add(1)
			return nil, newest.v, false
		}
		if len(data) == 0 {
			// Tombstoned between scan and read: rescan settles on the
			// newer version the pruning writer published.
			continue
		}
		p, derr := decodeEntry(data, versionedEntryKey(key, newest.v))
		if derr != nil {
			// Corrupt: tombstone it (removal would unpin the slot) and
			// miss at its version, whether or not the truncate worked.
			// A torn concurrent publish is impossible — link(2) only
			// ever exposes complete staged files — so this is real
			// damage, and the record restarts one version later.
			s.corrupt.Add(1)
			s.misses.Add(1)
			_ = os.Truncate(path, 0)
			return nil, newest.v, false
		}
		s.hits.Add(1)
		return p, newest.v, true
	}
}

// CompareAndUpdate publishes payload as version expect+1, succeeding
// only if this writer is the first to do so. expect must be the version
// LoadVersioned returned (0 when absent). On ErrCASConflict the caller
// re-reads and retries; any other error is an I/O fault.
func (s *Store) CompareAndUpdate(key string, expect uint64, payload []byte) error {
	next := expect + 1
	target := s.versionedPath(key, next)
	if _, err := os.Stat(target); err == nil {
		s.casConflicts.Add(1)
		return ErrCASConflict
	}
	data := encodeEntry(versionedEntryKey(key, next), payload)
	if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
		s.putErrors.Add(1)
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "cas-*")
	if err != nil {
		s.putErrors.Add(1)
		return err
	}
	name := tmp.Name()
	defer os.Remove(name)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		s.putErrors.Add(1)
		return err
	}
	if err := tmp.Close(); err != nil {
		s.putErrors.Add(1)
		return err
	}
	// link(2) is the atomic test-and-set: it fails with EEXIST when any
	// other process published this version first — a tombstone counts,
	// which is exactly what makes stale writers lose.
	if err := os.Link(name, target); err != nil {
		if os.IsExist(err) {
			s.casConflicts.Add(1)
			return ErrCASConflict
		}
		s.putErrors.Add(1)
		return err
	}
	s.puts.Add(1)
	// Tombstone superseded payloads (keeping a short forensic window).
	// Racing pruners truncate idempotently; never unlink — see the
	// package comment for why the names must survive.
	for _, slot := range s.scanVersions(key) {
		if slot.live && slot.v+keepVersions < next {
			_ = os.Truncate(s.versionedPath(key, slot.v), 0)
		}
	}
	return nil
}

// UpdateVersioned runs the optimistic read-recompute-publish loop:
// update receives the current payload (nil when absent) and returns the
// next one. Retries on conflict with a short jittered backoff, up to
// maxRetries (<=0 means a generous default). Every conflict means some
// other writer succeeded, so the loop is lock-free: fleet-wide progress
// is guaranteed even when one writer keeps losing.
func (s *Store) UpdateVersioned(key string, maxRetries int, update func(old []byte) ([]byte, error)) error {
	if maxRetries <= 0 {
		maxRetries = 64
	}
	for attempt := 0; ; attempt++ {
		old, version, _ := s.LoadVersioned(key)
		next, err := update(old)
		if err != nil {
			return err
		}
		err = s.CompareAndUpdate(key, version, next)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrCASConflict) {
			return err
		}
		if attempt >= maxRetries {
			return fmt.Errorf("diskcache: update %s: %w after %d attempts", key[:8], ErrCASConflict, attempt+1)
		}
		// Jittered backoff desynchronizes a conflict storm; the winner
		// of each round finished already, so waits stay microscopic.
		time.Sleep(time.Duration(rand.Int63n(int64(200*time.Microsecond) * int64(attempt+1))))
	}
}
