// Package diskcache is a disk-backed, content-addressed artifact store
// shared by the pipeline, the probe driver, and the serve frontend.
//
// Every artifact and set is addressed by a sha256 key derived from the
// full content that determines it (source or IR text, pipeline
// identity, AA chain, a probe campaign's check) plus a schema version,
// so a schema bump silently invalidates the whole store. Entries are
// self-checking: a header carries the format magic, schema version and
// key, and a trailing sha256 guards the payload, so a truncated or
// corrupt file degrades to a cache miss, never an error or a torn read.
//
// The store is safe for concurrent use by multiple processes sharing
// one directory. Writers stage into a tmp/ subdirectory and publish
// with rename(2), which is atomic on POSIX filesystems: readers see
// either no entry or a complete one. Two processes writing the same
// key race benignly: both renames succeed and the last one wins. The
// two payloads need not be byte-identical (two service compiles of one
// key differ in their timing fields), but either way every reader sees
// one complete entry.
//
// Artifacts live under objects/xx/<key>. State that only grows (a
// function's verdict set, a probe campaign's test verdicts and runs,
// the warehouse index) lives under sets/xx/<key>/<name> as grow-only
// sets of members that are never rewritten (set.go).
//
// GC is size-capped and mtime-driven: reads refresh an entry's or a
// member's mtime, and when the store grows past its budget the oldest
// files are removed until usage drops below a low-water mark, so hot
// entries survive pressure.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion is baked into every key and every entry header.
// Bump it whenever the meaning or encoding of any cached payload
// changes; old entries then read as misses and age out through GC.
//
// v2: float constants print with a mandatory ".0"/exponent marker, so
// persisted IR text from v1 (where "vsplat 3" was ambiguous between an
// i64 and a double splat) must not be re-materialized.
const SchemaVersion = 2

// entryMagic brands every entry file.
var entryMagic = [4]byte{'O', 'R', 'Q', 'C'}

// DefaultMaxBytes caps the store at 512 MiB unless configured.
const DefaultMaxBytes = 512 << 20

// gc thresholds: a sweep triggers once at least gcCheckEvery bytes
// have been written since the last sweep, and evicts down to
// gcLowWater of the budget so sweeps stay rare.
const gcCheckEvery = 4 << 20

const gcLowWater = 0.85

// Counters is a snapshot of the store's activity since Open.
type Counters struct {
	Hits      int64 // Get found a valid entry, or SetMembers a readable member
	Misses    int64 // Get or SetMembers found nothing
	Corrupt   int64 // torn/truncated/foreign entries or members found (counted as a miss too)
	Puts      int64 // entries and set members published
	PutErrors int64 // publishes that failed (I/O errors; non-fatal)
	Evictions int64 // files removed by GC
}

// Store is one open handle on a cache directory. It is safe for
// concurrent use from multiple goroutines; multiple Stores (in the
// same or different processes) may share a directory.
type Store struct {
	dir      string
	maxBytes int64

	hits, misses, corrupt atomic.Int64
	puts, putErrors       atomic.Int64
	evictions             atomic.Int64

	// written accumulates bytes published since the last GC sweep;
	// gcMu serializes sweeps within this process.
	written atomic.Int64
	gcMu    sync.Mutex
}

// Option tunes Open.
type Option func(*Store)

// WithMaxBytes sets the GC size budget (<=0 keeps the default).
func WithMaxBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.maxBytes = n
		}
	}
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, maxBytes: DefaultMaxBytes}
	for _, o := range opts {
		o(s)
	}
	for _, sub := range []string{"objects", "sets", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	// Shard by the first key byte to keep directories small.
	return filepath.Join(s.dir, "objects", key[:2], key)
}

// Get returns the payload stored under key, or ok=false on a miss.
// A torn, truncated, foreign-schema or otherwise invalid entry is
// deleted and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(data, key)
	if err != nil {
		// Corrupt or foreign: drop it so it cannot waste reads again.
		s.corrupt.Add(1)
		s.misses.Add(1)
		_ = os.Remove(p)
		return nil, false
	}
	s.hits.Add(1)
	// Refresh mtime so GC sees this entry as hot. Best effort: the
	// entry may have been evicted between the read and the touch.
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	return payload, true
}

// Put publishes payload under key. Errors are absorbed into the
// PutErrors counter: a failed write only costs a future miss.
func (s *Store) Put(key string, payload []byte) {
	data := encodeEntry(key, payload)
	if err := s.writeAtomic(key, data); err != nil {
		s.putErrors.Add(1)
		return
	}
	s.published(len(data))
}

// published counts one publish of n bytes and sweeps once enough bytes
// have been written since the last sweep.
func (s *Store) published(n int) {
	s.puts.Add(1)
	if s.written.Add(int64(n)) >= gcCheckEvery {
		s.written.Store(0)
		s.gc()
	}
}

// stage writes data to a fresh file under tmp/ and returns its path.
func (s *Store) stage(data []byte) (string, error) {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}

func (s *Store) writeAtomic(key string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		return err
	}
	name, err := s.stage(data)
	if err != nil {
		return err
	}
	// rename is atomic within one filesystem (tmp/ and objects/ share
	// the store root): concurrent readers see the old state or the
	// complete new entry, never a partial write. No fsync: a machine
	// crash can truncate the entry, which the checksum turns into a
	// miss on the next read.
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Counters returns a snapshot of the store's activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrors.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Usage walks the store and returns its live file count (entries and
// set members) and byte total. It is O(files); callers on hot paths
// should throttle.
func (s *Store) Usage() (entries int, bytes int64) {
	for _, e := range s.scan() {
		entries++
		bytes += e.size
	}
	return entries, bytes
}

type scanEntry struct {
	path  string
	size  int64
	mtime time.Time
}

func (s *Store) scan() []scanEntry {
	var out []scanEntry
	for _, root := range []string{"objects", "sets"} {
		_ = filepath.Walk(filepath.Join(s.dir, root), func(path string, info os.FileInfo, err error) error {
			if err != nil || info == nil || info.IsDir() {
				return nil // entries may vanish mid-walk; skip and continue
			}
			out = append(out, scanEntry{path: path, size: info.Size(), mtime: info.ModTime()})
			return nil
		})
	}
	return out
}

// gc removes files oldest-first, entries and set members alike, until
// usage is under the low-water mark. Concurrent sweeps from other
// processes race benignly: removing an already-removed file is a no-op.
func (s *Store) gc() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	entries := s.scan()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	target := int64(float64(s.maxBytes) * gcLowWater)
	for _, e := range entries {
		if total <= target {
			break
		}
		// Re-stat before removing: the scan's mtime is stale, and a
		// writer (this process or another sharing the directory) may
		// have republished this path — or a reader touched it — since.
		// Evicting then would discard a fresh entry a Get just promised;
		// skip it and let the next sweep judge it by its new mtime.
		st, err := os.Stat(e.path)
		if err != nil {
			total -= e.size // already gone: a racing sweep evicted it
			continue
		}
		if st.ModTime().After(e.mtime) {
			continue
		}
		if os.Remove(e.path) == nil {
			s.evictions.Add(1)
		}
		total -= e.size
	}
}

// GCNow forces a sweep regardless of the bytes-written trigger.
func (s *Store) GCNow() { s.gc() }

// entry layout:
//
//	magic[4] schema[u32] keyLen[u32] key payloadLen[u64] payload sha256(payload)[32]
func encodeEntry(key string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(key) + len(payload) + 52)
	buf.Write(entryMagic[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], SchemaVersion)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	buf.Write(u32[:])
	buf.WriteString(key)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	buf.Write(u64[:])
	buf.Write(payload)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	return buf.Bytes()
}

func decodeEntry(data []byte, key string) ([]byte, error) {
	if len(data) < 16 || !bytes.Equal(data[:4], entryMagic[:]) {
		return nil, fmt.Errorf("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != SchemaVersion {
		return nil, fmt.Errorf("schema %d != %d", v, SchemaVersion)
	}
	keyLen := int(binary.LittleEndian.Uint32(data[8:12]))
	if keyLen < 0 || 12+keyLen+8 > len(data) {
		return nil, fmt.Errorf("truncated header")
	}
	if string(data[12:12+keyLen]) != key {
		return nil, fmt.Errorf("key mismatch")
	}
	off := 12 + keyLen
	payloadLen := binary.LittleEndian.Uint64(data[off : off+8])
	off += 8
	// Compare without adding to payloadLen: a corrupt length near 2^64
	// would wrap the sum and pass.
	if len(data)-off < sha256.Size || payloadLen != uint64(len(data)-off-sha256.Size) {
		return nil, fmt.Errorf("truncated payload")
	}
	payload := data[off : off+int(payloadLen)]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[off+int(payloadLen):]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}
