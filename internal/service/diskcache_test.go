package service_test

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/service"
)

// corruptAllEntries flips a byte in the middle of every stored object.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		data[len(data)/2] ^= 0xff
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no entries to corrupt")
	}
}

// Two service instances sharing one cache directory must behave as one
// cache: a compile performed by the first is served from disk by the
// second (which never ran the pipeline for it), with an identical
// payload, and the disk gauges surface in /metrics.
func TestSharedCacheDirAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := compileReq(progSum, service.CompileOptions{WithIR: true})

	cacheA, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, clA, stopA := newTestServer(t, service.Config{Cache: cacheA})
	respA, err := clA.Compile(ctx, req)
	if err != nil {
		stopA()
		t.Fatalf("instance A compile: %v", err)
	}
	if respA.Cached {
		t.Fatal("first compile on a fresh dir claims to be cached")
	}
	stopA() // instance A is gone; only the directory survives

	cacheB, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, clB, stopB := newTestServer(t, service.Config{Cache: cacheB})
	defer stopB()
	respB, err := clB.Compile(ctx, req)
	if err != nil {
		t.Fatalf("instance B compile: %v", err)
	}
	if !respB.Cached {
		t.Fatal("instance B did not serve the shared-dir entry as a hit")
	}
	if !bytes.Equal(respA.Result, respB.Result) {
		t.Fatalf("shared-dir payload differs:\nA: %s\nB: %s", respA.Result, respB.Result)
	}
	if exeHash(t, respA) != exeHash(t, respB) {
		t.Fatal("exe hash differs across instances")
	}

	text, err := clB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits := metricValue(t, text, "oraql_disk_cache_hits_total"); hits < 1 {
		t.Fatalf("disk hit gauge = %v, want >= 1", hits)
	}
	if entries := metricValue(t, text, "oraql_disk_cache_entries"); entries < 1 {
		t.Fatalf("disk entries gauge = %v, want >= 1", entries)
	}
	// Eviction counter must be present (zero) so dashboards can rely on it.
	_ = metricValue(t, text, "oraql_disk_cache_evictions_total")
}

// A corrupted persisted response must degrade to a recompile, not an
// error or a bad payload.
func TestSharedCacheDirCorruptResponseRecompiles(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := compileReq(progSum, service.CompileOptions{})

	cache, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, cl, stop := newTestServer(t, service.Config{Cache: cache})
	first, err := cl.Compile(ctx, req)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	stop()

	corruptAllEntries(t, dir)

	cache2, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, cl2, stop2 := newTestServer(t, service.Config{Cache: cache2})
	defer stop2()
	second, err := cl2.Compile(ctx, req)
	if err != nil {
		t.Fatalf("compile after corruption: %v", err)
	}
	if second.Cached {
		t.Fatal("corrupt entry was served as a hit")
	}
	if exeHash(t, first) != exeHash(t, second) {
		t.Fatal("recompiled exe hash differs from original")
	}
}

// oraql_compiles_total counts pipeline runs, not translation-unit
// loads. The analysis cache is transparent, so it stays out of the TU
// key: a second request that differs only in disable_analysis_cache
// misses the response cache and the LRU, but the pipeline serves it
// whole from the first request's TU artifact without running.
func TestCompilesTotalSkipsTranslationUnitLoads(t *testing.T) {
	ctx := context.Background()
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, cl, stop := newTestServer(t, service.Config{Cache: cache})
	defer stop()
	for _, opts := range []service.CompileOptions{{}, {DisableAnalysisCache: true}} {
		resp, err := cl.Compile(ctx, compileReq(progSum, opts))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("options %+v were served from the response cache", opts)
		}
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "oraql_compiles_total"); got != 1 {
		t.Fatalf("oraql_compiles_total = %v, want 1", got)
	}
}
