package service_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/service"
)

// TestCompileSingleFlight pins the thundering-herd behaviour: 16
// clients submitting the identical program concurrently trigger
// exactly one pipeline compilation — one leader runs, the followers
// wait for its response, and everyone gets the same payload.
func TestCompileSingleFlight(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	const clients = 16
	req := compileReq(progSum, service.CompileOptions{})
	responses := make([]*service.CompileResponse, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = cl.Compile(ctx, req)
		}(i)
	}
	close(start)
	wg.Wait()

	uncached := 0
	var hash string
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !responses[i].Cached {
			uncached++
		}
		h := exeHash(t, responses[i])
		if hash == "" {
			hash = h
		} else if h != hash {
			t.Fatalf("client %d: exe hash %s differs from %s", i, h, hash)
		}
	}
	if uncached != 1 {
		t.Fatalf("uncached responses = %d, want exactly 1 (single-flight leader)", uncached)
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if compiles := metricValue(t, text, "oraql_compiles_total"); compiles != 1 {
		t.Fatalf("oraql_compiles_total = %v, want exactly 1 for %d identical requests", compiles, clients)
	}
}

// TestCompileSingleFlightLeaderFailure pins the recovery path: when
// the leader's compilation fails, followers are woken empty-handed and
// retry instead of hanging, and every client sees the error.
func TestCompileSingleFlightLeaderFailure(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	const clients = 8
	req := compileReq("int main() { return 0 ", service.CompileOptions{}) // parse error
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = cl.Compile(ctx, req)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("client %d: miscompiling program returned no error", i)
		}
	}
}

// TestJobEventsDisconnectNoLeak pins that an event-stream handler
// exits when its client disconnects mid-campaign: goroutines return to
// baseline instead of accumulating one blocked handler per dropped
// stream. Both counts are taken with no idle keep-alive connection
// open: an idle connection holds two client goroutines and one on the
// server, none of them a handler. A request cancelled while its
// connection is being dialled leaves that connection idle, so the
// client gets a transport of its own to close them on.
func TestJobEventsDisconnectNoLeak(t *testing.T) {
	svc, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl.HTTP = &http.Client{Transport: tr}
	goroutines := func() int {
		tr.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine()
	}

	// A campaign large enough to still be running while streams come
	// and go.
	info, err := cl.Fuzz(ctx, &service.FuzzRequest{N: 400, Workers: 1, NoTriage: true, MaxDivergences: 1000})
	if err != nil {
		t.Fatal(err)
	}

	before := goroutines()
	const streams = 8
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, cancel := context.WithCancel(ctx)
			defer cancel()
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel() // client disconnects mid-stream
			}()
			_ = cl.Events(sctx, info.ID, &strings.Builder{})
		}()
	}
	wg.Wait()

	// Each handler must notice the disconnect; give the server a
	// bounded grace period to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := goroutines(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Fatalf("goroutines: %d before streams, %d after disconnect — event handlers leaked", before, n)
			}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	if _, err := cl.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, info.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_ = svc
}
