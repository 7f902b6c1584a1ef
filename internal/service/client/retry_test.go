package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/service"
)

// flakyServer answers failStatus for the first fail requests on every
// path, then succeeds with one queued job.
func flakyServer(t *testing.T, fail int, failStatus int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(fail) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(failStatus)
			w.Write([]byte(`{"error":"queue full","code":503}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j1","kind":"probe","state":"queued","created":"2026-01-01T00:00:00Z"}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// testPolicy records backoff delays instead of sleeping.
func testPolicy(maxAttempts int, slept *[]time.Duration) *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: maxAttempts,
		BaseDelay:   40 * time.Millisecond,
		MaxDelay:    time.Second,
		sleep:       func(d time.Duration) { *slept = append(*slept, d) },
		jitter:      func(n int64) int64 { return n / 2 },
	}
}

// A GET that hits 503s is retried with backoff until it succeeds.
func TestRetryGetOn503(t *testing.T) {
	srv, calls := flakyServer(t, 2, http.StatusServiceUnavailable)
	var slept []time.Duration
	c := New(srv.URL)
	c.Retry = testPolicy(4, &slept)
	info, err := c.Job(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Job after retries: %v", err)
	}
	if info.ID != "j1" || info.State != "queued" {
		t.Fatalf("unexpected job: %+v", info)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoffs recorded, want 2: %v", len(slept), slept)
	}
}

// Backoff doubles per retry and stays inside the jitter envelope
// [d/2, d] for d = Base<<retry.
func TestRetryBackoffJitterBounds(t *testing.T) {
	srv, _ := flakyServer(t, 3, http.StatusBadGateway)
	var slept []time.Duration
	c := New(srv.URL)
	c.Retry = testPolicy(4, &slept)
	c.Retry.jitter = nil // real jitter: verify the bounds hold
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatalf("Job: %v", err)
	}
	base := c.Retry.BaseDelay
	if len(slept) != 3 {
		t.Fatalf("%d backoffs, want 3", len(slept))
	}
	for i, d := range slept {
		lo, hi := (base<<i)/2, base<<i
		if d < lo || d > hi+time.Millisecond {
			t.Fatalf("backoff %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

// A network failure (connection refused) on a GET is retried too.
func TestRetryGetOnNetworkError(t *testing.T) {
	srv, calls := flakyServer(t, 0, 0)
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close() // refused from now on
	var slept []time.Duration
	hop := 0
	c := New(dead.URL)
	c.Retry = testPolicy(3, &slept)
	// Redirect to the live server after the first refused attempt by
	// swapping Base inside the sleep seam (the retry loop re-reads it
	// via doOnce's request build).
	c.Retry.sleep = func(d time.Duration) {
		slept = append(slept, d)
		if hop == 0 {
			c.Base = srv.URL
			hop++
		}
	}
	if _, err := c.Job(context.Background(), "j1"); err != nil {
		t.Fatalf("Job after failover: %v", err)
	}
	if calls.Load() != 1 || len(slept) != 1 {
		t.Fatalf("calls=%d slept=%d, want 1 and 1", calls.Load(), len(slept))
	}
}

// Non-idempotent POSTs are never retried, even on 503 queue-full with
// a retry policy configured: the server must see exactly one attempt.
func TestNoRetryPostOn503(t *testing.T) {
	srv, calls := flakyServer(t, 100, http.StatusServiceUnavailable)
	var slept []time.Duration
	c := New(srv.URL)
	c.Retry = testPolicy(5, &slept)
	_, err := c.Probe(context.Background(), &service.ProbeRequest{})
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("expected the 503 envelope, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d POST attempts, want exactly 1", got)
	}
	if len(slept) != 0 {
		t.Fatalf("POST slept %v; must not back off", slept)
	}
}

// Non-retryable statuses (404) stop a GET immediately.
func TestNoRetryGetOn404(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no such job","code":404}`))
	}))
	t.Cleanup(srv.Close)
	var slept []time.Duration
	c := New(srv.URL)
	c.Retry = testPolicy(5, &slept)
	if _, err := c.Job(context.Background(), "nope"); err == nil {
		t.Fatal("expected an error")
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("calls=%d slept=%d; 404 must not retry", calls.Load(), len(slept))
	}
}

// Cancellation between attempts stops the retry loop.
func TestRetryStopsOnCancel(t *testing.T) {
	srv, calls := flakyServer(t, 100, http.StatusServiceUnavailable)
	ctx, cancel := context.WithCancel(context.Background())
	var slept []time.Duration
	c := New(srv.URL)
	c.Retry = testPolicy(10, &slept)
	c.Retry.sleep = func(d time.Duration) {
		slept = append(slept, d)
		cancel()
	}
	_, err := c.Job(ctx, "j1")
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts after cancel, want 1", got)
	}
}
