package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/diskcache"
)

// A /metrics scrape walks the whole store for its usage gauges. It
// does so before taking the registry's mutex, so a request that
// finishes during the walk is answered and counted without waiting for
// it. The scrape is held inside the walk until the request is done.
func TestScrapeWalkDoesNotHoldRequests(t *testing.T) {
	store, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Cache: store, Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	svc.met.usage = func(s *diskcache.Store) (int, int64) {
		close(entered)
		<-release
		return s.Usage()
	}
	ts := httptest.NewServer(svc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	get := func(path string, done chan<- error) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}

	scraped := make(chan error, 1)
	go get("/metrics", scraped)
	<-entered
	answered := make(chan error, 1)
	go get("/healthz", answered)
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a request waited for a scrape's store walk")
	}
	svc.met.mu.Lock()
	counted := svc.met.requests["/healthz"][http.StatusOK]
	svc.met.mu.Unlock()
	if counted != 1 {
		t.Errorf("/healthz counted %d times during the scrape, want 1", counted)
	}
	close(release)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}
