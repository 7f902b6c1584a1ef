package service_test

import (
	"context"
	"testing"

	"github.com/oraql/go-oraql/internal/service"
)

// TestCompileCacheKeysPinned pins the result-cache key pair that
// POST /v1/compile returns. The keys hash the canonical JSON of the
// request's program and options, and persisted responses are filed
// under them, so a change to the request types (a field's name, tag or
// order) would orphan every response a shared -cache-dir holds.
func TestCompileCacheKeysPinned(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	// The values were taken before the request types moved from
	// internal/service to internal/request.
	cases := []struct {
		name               string
		req                service.CompileRequest
		moduleHash, config string
	}{
		{"config id", service.CompileRequest{
			Program: service.ProgramSpec{ConfigID: "lulesh-seq"},
		}, "62d72bd76ec31796", "44136fa355b3678a"},
		{"source with model", service.CompileRequest{
			Program: service.ProgramSpec{Source: progSum, SourceFile: "sum.mc", Model: "openmp"},
		}, "f266416aa7fccc7e", "44136fa355b3678a"},
		{"oraql seq and target", service.CompileRequest{
			Program: service.ProgramSpec{Source: progPtr, SourceFile: "ptr.mc"},
			Options: service.CompileOptions{ORAQL: true, Seq: "1 0 1", Target: "host"},
		}, "8ab7537ef6f6c167", "6bf4ec027a8bc648"},
	}
	for _, tc := range cases {
		resp, err := cl.Compile(context.Background(), &tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.ModuleHash != tc.moduleHash || resp.ConfigHash != tc.config {
			t.Errorf("%s: keys %s:%s, want %s:%s", tc.name, resp.ModuleHash, resp.ConfigHash, tc.moduleHash, tc.config)
		}
	}
}
