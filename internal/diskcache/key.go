package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// Key derives a content address from a domain tag and the ordered
// content parts that determine the artifact. Parts are length-prefixed
// before hashing so no concatenation of parts can collide with a
// different split of the same bytes, and the schema version is folded
// in so a bump re-keys the entire store.
func Key(domain string, parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "oraql/%d/%s\x00", SchemaVersion, domain)
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashText returns the bare content hash of a text blob (module or
// function IR), given whole or as parts that concatenate to it. Used
// to identify programs and functions in campaign state without tying
// the identity to a cache domain.
func HashText(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
