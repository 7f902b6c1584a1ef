package diskcache

// Grow-only sets: shared state that only ever gains members.
//
// Immutable artifacts (objects/) are published blind: two writers of
// one key race benignly because either payload is a correct value for
// the key, and the last rename wins. The state campaigns share across
// processes (a function's verdict set, a campaign's test verdicts and
// runs, the warehouse's record index) only grows, so it is kept as a
// set of named members, one file each, under sets/xx/<key>/<name>. A
// member is never rewritten: a writer stages a self-checked file in
// tmp/ and links it into place, and link(2) fails with EEXIST when the
// name exists, so of two writers of one name exactly one adds it. A
// name always stands for the same content (a hash of it, or the ID of
// the record it summarizes), so the loser has nothing to retry.
//
// With nothing overwritten there is no read-modify-write to lose, and
// so no version to compare or retry on. GC evicts members by age like
// objects; a set that loses a member reads as a smaller set, and a
// writer that still holds the member's content simply adds it again.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setDir is the directory holding key's members.
func (s *Store) setDir(key string) string {
	return filepath.Join(s.dir, "sets", key[:2], key)
}

// memberID is the identity embedded in a member's entry header, so a
// file moved between names or sets fails its self-check.
func memberID(key, name string) string { return key + "/" + name }

// AddToSet adds payload to key's set under name. added reports whether
// this call created the member; when the name is already present the
// set is left as it is and added is false. name must be a plain file
// name.
func (s *Store) AddToSet(key, name string, payload []byte) (added bool, err error) {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return false, fmt.Errorf("diskcache: bad set member name %q", name)
	}
	target := filepath.Join(s.setDir(key), name)
	if _, err := os.Lstat(target); err == nil {
		return false, nil
	}
	data := encodeEntry(memberID(key, name), payload)
	if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
		s.putErrors.Add(1)
		return false, err
	}
	staged, err := s.stage(data)
	if err != nil {
		s.putErrors.Add(1)
		return false, err
	}
	defer os.Remove(staged)
	// link(2) is the test-and-set: it publishes the complete staged file
	// or fails with EEXIST when another writer added the name first.
	if err := os.Link(staged, target); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		s.putErrors.Add(1)
		return false, err
	}
	s.published(len(data))
	return true, nil
}

// AddJSON adds v's JSON to key's set as a member named by the hash of
// that JSON, so two writers of one value add one member.
func (s *Store) AddJSON(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = s.AddToSet(key, HashText(string(data)), data)
	return err
}

// SetMembers returns key's readable members by name (nil when there are
// none). A corrupt member is removed, so its name can be added again; a
// member that cannot be read (evicted since the listing, or not a file)
// is skipped.
func (s *Store) SetMembers(key string) map[string][]byte {
	dir := s.setDir(key)
	// An absent or unreadable directory reads as an empty set.
	ents, _ := os.ReadDir(dir)
	var out map[string][]byte
	now := time.Now()
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		payload, err := decodeEntry(data, memberID(key, e.Name()))
		if err != nil {
			s.corrupt.Add(1)
			_ = os.Remove(p)
			continue
		}
		if out == nil {
			out = map[string][]byte{}
		}
		out[e.Name()] = payload
		// Refresh mtime so GC sees the member as hot, as Get does.
		_ = os.Chtimes(p, now, now)
	}
	if out == nil {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	return out
}
