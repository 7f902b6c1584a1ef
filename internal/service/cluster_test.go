package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
)

// fleetNode is one in-process serve instance reachable over loopback
// HTTP.
type fleetNode struct {
	cl  *client.Client
	url string
}

// newFleet starts n instances on one shared cache directory. Each
// opens its own store on dir, as separate processes would.
func newFleet(t *testing.T, n int, dir string) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		st, err := diskcache.Open(dir)
		if err != nil {
			t.Fatalf("open shared store: %v", err)
		}
		_, cl, stop := newTestServer(t, service.Config{Cache: st})
		t.Cleanup(stop)
		nodes[i] = &fleetNode{cl: cl, url: cl.Base}
	}
	return nodes
}

// fleetCompiles sums oraql_compiles_total over nodes.
func fleetCompiles(t *testing.T, nodes []*fleetNode) float64 {
	t.Helper()
	var total float64
	for _, n := range nodes {
		text, err := n.cl.Metrics(context.Background())
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		total += metricValue(t, text, "oraql_compiles_total")
	}
	return total
}

// TestClusterExactlyOneCompileSharedDir is the fleet-dedup contract: a
// 16-config sweep round-robined over two instances sharing one cache
// directory costs exactly 16 compilations fleet-wide, and the warm
// sweep — issued as one batch against each instance — costs zero more
// while returning the identical executables.
func TestClusterExactlyOneCompileSharedDir(t *testing.T) {
	nodes := newFleet(t, 2, t.TempDir())
	ctx := context.Background()

	const sweep = 16
	reqs := make([]service.CompileRequest, sweep)
	for i := range reqs {
		src := fmt.Sprintf("int main() { int cfg = %d; print(cfg, \"\\n\"); return 0; }", i)
		reqs[i] = *compileReq(src, service.CompileOptions{})
	}

	// Cold sweep, round-robin across the fleet.
	cold := make([]string, sweep)
	for i := range reqs {
		resp, err := nodes[i%2].cl.Compile(ctx, &reqs[i])
		if err != nil {
			t.Fatalf("cold compile %d: %v", i, err)
		}
		cold[i] = exeHash(t, resp)
	}
	if got := fleetCompiles(t, nodes); got != sweep {
		t.Fatalf("cold sweep ran %v compilations fleet-wide, want exactly %d", got, sweep)
	}

	// Warm sweep as one batch per instance: every item must come back
	// cached and byte-equal, with zero new compilations anywhere.
	for _, n := range nodes {
		batch, err := n.cl.CompileBatch(ctx, &service.BatchCompileRequest{Items: reqs})
		if err != nil {
			t.Fatalf("warm batch on %s: %v", n.url, err)
		}
		if batch.Unique != sweep {
			t.Fatalf("warm batch Unique=%d, want %d", batch.Unique, sweep)
		}
		for i, item := range batch.Items {
			if item.Response == nil {
				t.Fatalf("warm batch item %d failed: %s", i, item.Error)
			}
			if !item.Response.Cached {
				t.Fatalf("warm batch item %d not served from the fleet cache", i)
			}
			if h := exeHash(t, item.Response); h != cold[i] {
				t.Fatalf("warm batch item %d exe hash %s != cold %s", i, h, cold[i])
			}
		}
	}
	if got := fleetCompiles(t, nodes); got != sweep {
		t.Fatalf("warm sweep recompiled: %v compilations fleet-wide, want still %d", got, sweep)
	}
}

// TestClusterConcurrentSharedDir sends one new key from 8 clients at
// once through two instances that share one directory. Every response
// carries the same executable, the fleet compiles the key at most once
// per instance, and the racing publishes leave one complete entry: a
// third instance opened on the directory serves the key as a hit.
// Payloads are not compared, because two compiles of one key differ in
// compile_ms and in per-pass wall_ms.
func TestClusterConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	nodes := newFleet(t, 2, dir)
	ctx := context.Background()
	req := compileReq(progSum, service.CompileOptions{})

	const clients = 8
	resps := make([]*service.CompileResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = nodes[i%2].cl.Compile(ctx, req)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	want := exeHash(t, resps[0])
	for i := 1; i < clients; i++ {
		if h := exeHash(t, resps[i]); h != want {
			t.Fatalf("client %d got exe hash %s, client 0 got %s", i, h, want)
		}
	}
	if compiles := fleetCompiles(t, nodes); compiles < 1 || compiles > 2 {
		t.Fatalf("fleet ran %v compilations of one key, want 1 or 2 (once per instance at worst)", compiles)
	}

	third := newFleet(t, 1, dir)[0]
	resp, err := third.cl.Compile(ctx, req)
	if err != nil {
		t.Fatalf("compile on a third instance: %v", err)
	}
	if !resp.Cached {
		t.Fatal("a third instance on the shared directory recompiled the key")
	}
	if h := exeHash(t, resp); h != want {
		t.Fatalf("third instance served exe hash %s, want %s", h, want)
	}
}
