package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// cacheKeys derives the result-cache key pair: moduleHash identifies
// the program and its frontend lowering, configHash the compilation
// options (including response sequence and IR embedding). Both are
// content hashes of the canonical JSON of the respective request part.
func cacheKeys(req *CompileRequest) (moduleHash, configHash string) {
	return hashJSON(req.Program), hashJSON(req.Options)
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Wire types marshal by construction; a failure here is a bug.
		panic(fmt.Sprintf("service: hashJSON: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// badRequest marks client errors (HTTP 400) apart from server faults;
// every error of a request's translation is one.
type badRequest struct{ error }
