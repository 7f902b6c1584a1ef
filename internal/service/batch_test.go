package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/service"
)

// TestBatchDedupOrderAndEquivalence pins the batch contract: items
// come back in request order, duplicates are deduplicated to one
// compilation and marked cached, the payloads are byte-identical to
// what /v1/compile produces for the same requests, and a warm repeat
// of the whole batch compiles nothing.
func TestBatchDedupOrderAndEquivalence(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	a := *compileReq(progSum, service.CompileOptions{})
	b := *compileReq(progPtr, service.CompileOptions{})
	c := *compileReq(progSum, service.CompileOptions{OptLevel: 1})
	items := []service.CompileRequest{a, b, a, c, a} // A B A C A

	batch, err := cl.CompileBatch(ctx, &service.BatchCompileRequest{Items: items})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(batch.Items) != len(items) {
		t.Fatalf("%d items back, want %d", len(batch.Items), len(items))
	}
	if batch.Unique != 3 {
		t.Fatalf("Unique=%d, want 3", batch.Unique)
	}
	for i, item := range batch.Items {
		if item.Response == nil {
			t.Fatalf("item %d failed: %s (code %d)", i, item.Error, item.Code)
		}
	}

	// Request order: duplicates of A carry A's key, B and C differ.
	first := batch.Items[0].Response
	for _, i := range []int{2, 4} {
		dup := batch.Items[i].Response
		if dup.ModuleHash != first.ModuleHash || dup.ConfigHash != first.ConfigHash {
			t.Fatalf("item %d is not the duplicate of item 0", i)
		}
		if !dup.Cached {
			t.Fatalf("duplicate item %d not marked cached", i)
		}
		if !bytes.Equal(dup.Result, first.Result) {
			t.Fatalf("duplicate item %d payload differs from item 0", i)
		}
	}
	if batch.Items[0].Response.Cached {
		t.Fatal("the first occurrence cannot be a cache hit on a cold server")
	}
	if batch.Items[1].Response.ModuleHash == first.ModuleHash {
		t.Fatal("distinct programs must not share a module hash")
	}
	if batch.Items[3].Response.ConfigHash == first.ConfigHash {
		t.Fatal("distinct options must not share a config hash")
	}

	// The batch path and the single-compile path are the same engine:
	// /v1/compile for the same request returns the identical document.
	// (Compare compacted: the pretty-printer re-indents the embedded
	// result by its nesting depth, which differs between envelopes.)
	single, err := cl.Compile(ctx, &a)
	if err != nil {
		t.Fatal(err)
	}
	compact := func(raw []byte) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatalf("compact payload: %v", err)
		}
		return buf.String()
	}
	if compact(single.Result) != compact(first.Result) {
		t.Fatal("batch payload differs from the /v1/compile payload")
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "oraql_compiles_total"); got != 3 {
		t.Fatalf("compiles=%v, want exactly 3 (one per unique key)", got)
	}
	if got := metricValue(t, text, "oraql_batch_requests_total"); got != 1 {
		t.Fatalf("batch_requests=%v, want 1", got)
	}
	if got := metricValue(t, text, "oraql_batch_items_total"); got != 5 {
		t.Fatalf("batch_items=%v, want 5", got)
	}
	if got := metricValue(t, text, "oraql_batch_unique_total"); got != 3 {
		t.Fatalf("batch_unique=%v, want 3", got)
	}

	// Warm repeat: everything cached, no new compilations.
	warm, err := cl.CompileBatch(ctx, &service.BatchCompileRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range warm.Items {
		if item.Response == nil || !item.Response.Cached {
			t.Fatalf("warm item %d not served from cache", i)
		}
		if !bytes.Equal(item.Response.Result, batch.Items[i].Response.Result) {
			t.Fatalf("warm item %d payload changed", i)
		}
	}
	text, err = cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "oraql_compiles_total"); got != 3 {
		t.Fatalf("warm batch recompiled: compiles=%v, want still 3", got)
	}
}

// TestBatchPerItemErrors pins partial failure: one bad item fails that
// item alone with its own status code while the rest of the batch
// compiles, and the response is still HTTP 200.
func TestBatchPerItemErrors(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()

	items := []service.CompileRequest{
		*compileReq(progSum, service.CompileOptions{}),
		*compileReq("int main( {", service.CompileOptions{}), // syntax error
		{Program: service.ProgramSpec{ConfigID: "no-such-config"}},
	}
	batch, err := cl.CompileBatch(context.Background(), &service.BatchCompileRequest{Items: items})
	if err != nil {
		t.Fatalf("a batch with failing items must still answer 200: %v", err)
	}
	if batch.Items[0].Response == nil {
		t.Fatalf("good item failed: %s", batch.Items[0].Error)
	}
	if batch.Items[1].Response != nil || batch.Items[1].Error == "" || batch.Items[1].Code != http.StatusUnprocessableEntity {
		t.Fatalf("syntax-error item: %+v, want a 422 error", batch.Items[1])
	}
	if batch.Items[2].Response != nil || batch.Items[2].Code != http.StatusBadRequest {
		t.Fatalf("unknown-config item: %+v, want a 400 error", batch.Items[2])
	}
}

// TestBatchValidation pins the request-level rejections: empty and
// oversized batches bounce with 400 before any compilation runs.
// TestBatchSeqReadsNoFile: an item whose seq names a file on the
// server gets a 400 whose error holds no byte of the file.
func TestBatchSeqReadsNoFile(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	items := []service.CompileRequest{{
		Program: service.ProgramSpec{ConfigID: "lulesh-seq"},
		Options: service.CompileOptions{Seq: "@" + secretFile(t)},
	}}
	batch, err := cl.CompileBatch(context.Background(), &service.BatchCompileRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if it := batch.Items[0]; it.Response != nil || it.Code != http.StatusBadRequest || strings.Contains(it.Error, secretToken) {
		t.Fatalf("item: %+v, want a 400 that holds no byte of the file", it)
	}
}

func TestBatchValidation(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	_, err := cl.CompileBatch(ctx, &service.BatchCompileRequest{})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch should 400, got %v", err)
	}

	huge := make([]service.CompileRequest, 1025)
	for i := range huge {
		huge[i] = *compileReq(progSum, service.CompileOptions{})
	}
	_, err = cl.CompileBatch(ctx, &service.BatchCompileRequest{Items: huge})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("oversized batch should 400, got %v", err)
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, text, "oraql_compiles_total"); got != 0 {
		t.Fatalf("rejected batches compiled %v programs", got)
	}
}

// TestBatchDraining pins the 503 while the service drains.
func TestBatchDraining(t *testing.T) {
	svc, cl, stop := newTestServer(t, service.Config{})
	defer stop() // a second Shutdown after the in-test drain is a no-op
	ctx := context.Background()

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	_, err := cl.CompileBatch(ctx, &service.BatchCompileRequest{
		Items: []service.CompileRequest{*compileReq(progSum, service.CompileOptions{})},
	})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("draining batch should 503, got %v", err)
	}
}
