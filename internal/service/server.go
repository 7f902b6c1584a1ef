package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oraql/go-oraql/internal/campaign"
	"github.com/oraql/go-oraql/internal/diskcache"
)

// Config tunes the service.
type Config struct {
	// Workers is the job worker pool size (default NumCPU).
	Workers int
	// QueueSize bounds the job queue; submissions beyond it are
	// rejected with 503 (default 64).
	QueueSize int
	// CacheEntries bounds the cross-request compile-result cache
	// (default 128).
	CacheEntries int
	// RequestTimeout caps synchronous work per request; it composes
	// with client disconnection, whichever fires first cancels the
	// compilation mid-pipeline (default 60s).
	RequestTimeout time.Duration
	// CampaignTimeout caps the wall clock of every scripted campaign
	// job (default 10m). Requests cannot raise it.
	CampaignTimeout time.Duration
	// CampaignMaxSteps caps the interpreter instruction budget of
	// every scripted campaign (default campaign.DefaultMaxSteps).
	// Requests can lower it, never raise it.
	CampaignMaxSteps int64
	// Cache, when non-nil, backs the in-memory result cache with the
	// shared persistent store (-cache-dir): compile responses are
	// served across restarts and across N serve instances sharing one
	// directory, which is what makes such a fleet one cache; the
	// pipeline's translation-unit layer is enabled for every service
	// compilation, and probe campaigns persist their state. Nil keeps
	// the service memory-only.
	Cache *diskcache.Store
	// Log receives one structured line per request and per job
	// transition (nil = silent).
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CampaignTimeout <= 0 {
		c.CampaignTimeout = 10 * time.Minute
	}
	if c.CampaignMaxSteps <= 0 {
		c.CampaignMaxSteps = campaign.DefaultMaxSteps
	}
	return c
}

// Server is the oraql-serve HTTP handler: shared result cache, bounded
// job queue, worker pool, metrics. Create with New, serve it with
// net/http, stop it with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	jobs  *jobStore
	queue chan *job
	met   *metrics

	// root is cancelled by Shutdown; every job context derives from it.
	root       context.Context
	rootCancel context.CancelFunc

	// submitMu serializes Submit against Shutdown's closed flip, so no
	// job can slip into the queue after draining starts.
	submitMu sync.Mutex
	closed   bool

	inflight atomic.Int64
	wg       sync.WaitGroup
}

// New builds a ready-to-serve Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	root, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries),
		jobs:       newJobStore(),
		queue:      make(chan *job, cfg.QueueSize),
		met:        newMetrics(),
		root:       root,
		rootCancel: cancel,
	}
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler with request logging and metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	route := routeLabel(r)
	s.met.observeRequest(route, sw.code, elapsed)
	s.logf("http method=%s route=%s code=%d dur_ms=%.2f bytes=%d",
		r.Method, route, sw.code, float64(elapsed.Microseconds())/1000, sw.bytes)
}

// statusWriter captures the response code and size for logging.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so event streaming works
// through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeLabel maps a request to its bounded-cardinality metrics label.
func routeLabel(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/compile", r.URL.Path == "/v1/compile/batch",
		r.URL.Path == "/v1/probe", r.URL.Path == "/v1/fuzz",
		r.URL.Path == "/v1/campaign", r.URL.Path == "/v1/registry",
		r.URL.Path == "/v1/warehouse",
		r.URL.Path == "/metrics", r.URL.Path == "/healthz":
		return r.URL.Path
	case len(r.URL.Path) > len("/v1/jobs/") && r.URL.Path[:len("/v1/jobs/")] == "/v1/jobs/":
		if len(r.URL.Path) > 7 && r.URL.Path[len(r.URL.Path)-7:] == "/events" {
			return "/v1/jobs/{id}/events"
		}
		return "/v1/jobs/{id}"
	default:
		return "other"
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "[oraql-serve] %s "+format+"\n",
			append([]any{time.Now().Format(time.RFC3339)}, args...)...)
	}
}

// submit enqueues a job, rejecting when draining or when the bounded
// queue is full. scriptSHA tags campaign jobs ("" otherwise).
func (s *Server) submit(kind, scriptSHA string, run func(ctx context.Context, j *job) (any, error)) (*job, error) {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("service is draining")
	}
	j := s.jobs.add(kind, run)
	j.scriptSHA = scriptSHA
	select {
	case s.queue <- j:
		s.met.observeJob(kind, JobQueued)
		s.logf("job id=%s kind=%s state=queued depth=%d", j.id, kind, len(s.queue))
		return j, nil
	default:
		j.finish(JobFailed, "queue full", nil)
		return nil, fmt.Errorf("job queue full (%d)", cap(s.queue))
	}
}

// worker executes queued jobs until shutdown, then drains the queue by
// cancelling whatever is still waiting.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			if s.root.Err() != nil {
				s.cancelQueued(j)
				continue
			}
			s.runJob(j)
		case <-s.root.Done():
			for {
				select {
				case j := <-s.queue:
					s.cancelQueued(j)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) cancelQueued(j *job) {
	if j.finish(JobCanceled, "server draining", nil) {
		s.met.observeJob(j.kind, JobCanceled)
		s.logf("job id=%s kind=%s state=canceled (drained from queue)", j.id, j.kind)
	}
}

// runJob executes one job under a cancellable child of the root
// context and records its terminal state.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.root)
	defer cancel()
	if !j.start(cancel) {
		return // cancelled while queued
	}
	s.inflight.Add(1)
	s.met.jobStarted(j.kind)
	defer func() {
		s.inflight.Add(-1)
		s.met.jobEnded(j.kind)
	}()

	result, err := j.run(ctx, j)
	switch {
	case err != nil && ctx.Err() != nil:
		j.finish(JobCanceled, err.Error(), nil)
		s.met.observeJob(j.kind, JobCanceled)
		s.logf("job id=%s kind=%s state=canceled err=%q", j.id, j.kind, err)
	case err != nil:
		j.finish(JobFailed, err.Error(), nil)
		s.met.observeJob(j.kind, JobFailed)
		s.logf("job id=%s kind=%s state=failed err=%q", j.id, j.kind, err)
	default:
		payload, merr := marshalResult(result)
		if merr != nil {
			j.finish(JobFailed, merr.Error(), nil)
			s.met.observeJob(j.kind, JobFailed)
			return
		}
		j.finish(JobDone, "", payload)
		s.met.observeJob(j.kind, JobDone)
		s.logf("job id=%s kind=%s state=done dur_ms=%.2f",
			j.id, j.kind, float64(time.Since(j.info().Started).Microseconds())/1000)
	}
}

// Shutdown drains the service: new submissions are rejected, queued
// jobs are cancelled without running, in-flight jobs have their
// contexts cancelled (stopping compilations mid-pipeline), and the
// worker pool is waited for up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.submitMu.Lock()
	s.closed = true
	s.submitMu.Unlock()
	s.rootCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("shutdown complete")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: workers did not drain: %w", ctx.Err())
	}
}

// Workers returns the resolved worker pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	return s.closed
}
