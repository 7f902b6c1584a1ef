package service

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/report"
)

// BenchmarkServe_DiskTier weighs the service's whole-response disk
// tier (svc-compile entries) against the translation-unit tier beside
// it, over serve-mix's 64 hot keys: the 16 configurations under the
// default, full-AA-chain, -O1 and no-analysis-cache options. A hit of
// the response tier reads the entry, decodes it and encodes the reply;
// serving the same request from its TU artifact instead restores the
// compilation, builds its report and encodes the reply. Each iteration
// times every key once each way, interleaved; the metrics are per-key
// medians and 90th percentiles in microseconds. scripts/bench_serve.sh
// records them into BENCH_serve.json:
//
//	go test -run '^$' -bench Serve_DiskTier -benchtime=5x ./internal/service
func BenchmarkServe_DiskTier(b *testing.B) {
	ctx := context.Background()
	store, err := diskcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Cache: store, Workers: 1})
	defer srv.Shutdown(ctx)
	var reqs []*CompileRequest
	for _, app := range apps.All() {
		for _, o := range []CompileOptions{{}, {FullAAChain: true}, {OptLevel: 1}, {DisableAnalysisCache: true}} {
			req := &CompileRequest{Program: ProgramSpec{ConfigID: app.ID}, Options: o}
			if _, err := srv.compileOne(ctx, req); err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	var tier, tu []time.Duration
	b.ResetTimer()
	for range b.N {
		for _, req := range reqs {
			moduleHash, configHash := cacheKeys(req)
			start := time.Now()
			resp, ok := srv.loadDiskResponse(moduleHash + ":" + configHash)
			if !ok {
				b.Fatal("no response-tier entry")
			}
			if _, err := json.Marshal(resp); err != nil {
				b.Fatal(err)
			}
			tier = append(tier, time.Since(start))

			start = time.Now()
			cfg, err := req.Config()
			if err != nil {
				b.Fatal(err)
			}
			cfg.DiskCache = store
			cr, err := pipeline.CompileContext(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if cr.DiskHits() == 0 {
				b.Fatal("not served from its TU artifact")
			}
			payload, err := marshalResult(report.NewCompileJSON(cr, req.Options.WithIR, cfg.ORAQL != nil))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(&CompileResponse{ModuleHash: moduleHash, ConfigHash: configHash, Result: payload}); err != nil {
				b.Fatal(err)
			}
			tu = append(tu, time.Since(start))
		}
	}
	b.StopTimer()
	for _, leg := range []struct {
		name string
		ds   []time.Duration
	}{{"tier", tier}, {"tu", tu}} {
		slices.Sort(leg.ds)
		b.ReportMetric(float64(leg.ds[len(leg.ds)/2].Microseconds()), leg.name+"-median-us")
		b.ReportMetric(float64(leg.ds[len(leg.ds)*9/10].Microseconds()), leg.name+"-p90-us")
	}
}
