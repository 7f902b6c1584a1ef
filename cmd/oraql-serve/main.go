// Command oraql-serve runs the compile-and-probe service: an
// HTTP/JSON server exposing the repo's workloads — synchronous
// compilation (POST /v1/compile, cached across requests), and
// asynchronous probe, differential-fuzzing, and scripted campaigns
// (POST /v1/probe, POST /v1/fuzz, POST /v1/campaign, polled via GET
// /v1/jobs/{id} and streamed via GET /v1/jobs/{id}/events) — with
// registry introspection on GET /v1/registry, Prometheus-text metrics
// on GET /metrics, and a health probe on GET /healthz.
//
// Campaign scripts run sandboxed: the interpreter has no filesystem,
// exec, or network bindings, and every job is bounded by
// -campaign-max-steps and -campaign-timeout (requests may lower the
// step budget, never raise it).
//
// Usage:
//
//	oraql-serve [-addr :8347] [-workers N]
//	            [-queue N] [-cache-entries N] [-request-timeout 60s]
//	            [-cache-dir DIR] [-cache-max-mb N] [-quiet]
//	            [-campaign-max-steps N] [-campaign-timeout 10m]
//
// With -cache-dir, compile results and probe campaign state persist in
// a content-addressed store shared safely by any number of serve
// instances (and the oraql CLI) pointing at the same
// directory: restarts and sibling instances start warm. A fleet of
// instances is one cache exactly when they share a -cache-dir; the
// instances never talk to each other.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, the
// job queue drains (queued jobs are cancelled without running), and
// in-flight jobs have their contexts cancelled, which stops their
// compilations mid-pipeline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/service"
)

func main() {
	argv := os.Args[1:]
	err := run(argv, os.Stdout, os.Stderr)
	os.Exit(cliutil.Report(os.Stderr, "oraql-serve", cliutil.WantsJSON(argv), err))
}

func run(argv []string, stdout, stderr io.Writer) error {
	var store cliutil.Store
	fs := flag.NewFlagSet("oraql-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8347", "listen address")
	workers := fs.Int("workers", 0, "job worker pool size (0 = NumCPU)")
	queue := fs.Int("queue", 64, "bounded job queue size")
	cacheEntries := fs.Int("cache-entries", 128, "compile result cache capacity")
	reqTimeout := fs.Duration("request-timeout", 60*time.Second, "synchronous request deadline")
	store.Flags(fs)
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	campaignSteps := fs.Int64("campaign-max-steps", 0, "instruction budget per campaign script (0 = package default; requests can lower it, never raise it)")
	campaignTimeout := fs.Duration("campaign-timeout", 0, "wall-clock limit per campaign script (0 = 10m)")
	quiet := fs.Bool("quiet", false, "suppress the structured request log")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")
	if err := cliutil.Parse(fs, argv, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 0); err != nil {
		return err
	}

	var logW io.Writer = stderr
	if *quiet {
		logW = nil
	}
	cache, err := store.Open()
	if err != nil {
		return err
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueSize:      *queue,
		CacheEntries:   *cacheEntries,
		RequestTimeout: *reqTimeout,
		Cache:          cache,
		Log:            logW,

		CampaignMaxSteps: *campaignSteps,
		CampaignTimeout:  *campaignTimeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stderr, "oraql-serve: listening on %s (workers=%d queue=%d cache=%d)\n",
		*addr, svc.Workers(), *queue, *cacheEntries)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "oraql-serve: %v: draining\n", sig)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the service first: queued jobs are cancelled, in-flight
	// pipeline work is stopped via context, and long-lived event
	// streams terminate — then the listener can shut down gracefully
	// without waiting on them.
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintln(stderr, "oraql-serve: drained cleanly")
	return nil
}
