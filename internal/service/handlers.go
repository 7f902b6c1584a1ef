package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/oraql/go-oraql/internal/campaign"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/registry"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/warehouse"
)

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/compile/batch", s.handleCompileBatch)
	mux.HandleFunc("POST /v1/probe", s.handleProbe)
	mux.HandleFunc("POST /v1/fuzz", s.handleFuzz)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /v1/warehouse", s.handleWarehouseGet)
	mux.HandleFunc("POST /v1/warehouse", s.handleWarehousePost)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func marshalResult(v any) (json.RawMessage, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return json.RawMessage(data), nil
}

// errInternal marks server faults (HTTP 500) apart from request faults.
var errInternal = errors.New("internal error")

// compileStatus maps a compileOne failure to its HTTP status code.
func compileStatus(err error) int {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, errInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the log line only.
		return 499
	default:
		// The program did not compile: the request is at fault.
		return http.StatusUnprocessableEntity
	}
}

// compileOne resolves one compile request in four steps: in-memory
// LRU, single-flight join, shared persistent store, and finally the
// pipeline itself. It is the shared engine of /v1/compile and
// /v1/compile/batch.
func (s *Server) compileOne(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	moduleHash, configHash := cacheKeys(req)
	key := moduleHash + ":" + configHash
	// Single-flight: the first request for this key compiles, identical
	// concurrent requests wait for its response instead of running the
	// pipeline once each.
	var fl *flight
	for {
		cached, f, leader := s.cache.begin(key)
		if cached != nil {
			resp := *cached
			resp.Cached = true
			return &resp, nil
		}
		if leader {
			fl = f
			break
		}
		if v, ok := s.cache.wait(ctx, f); ok {
			resp := *v
			resp.Cached = true
			return &resp, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("request cancelled: %w", err)
		}
		// The leader failed; loop to compete for the next flight.
	}
	completed := false
	defer func() {
		if !completed {
			// Every early return below is a failure: wake the followers
			// empty-handed so they retry rather than hang.
			s.cache.complete(key, fl, nil)
		}
	}()

	// Second level: the shared persistent store. A response another
	// process (or a previous life of this one) computed is promoted
	// into the in-memory cache and served as a hit.
	if resp, ok := s.loadDiskResponse(key); ok {
		s.cache.complete(key, fl, resp)
		completed = true
		hit := *resp
		hit.Cached = true
		return &hit, nil
	}

	cfg, err := req.Config()
	if err != nil {
		return nil, badRequest{err}
	}
	// Server-level tuning, deliberately not part of the wire format (or
	// the cache key): the disk cache only shortcuts work without
	// changing output.
	cfg.DiskCache = s.cfg.Cache
	cctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	start := time.Now()
	cr, err := pipeline.CompileContext(cctx, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("compilation exceeded the request timeout: %w", err)
		}
		return nil, err
	}
	s.observeCompileResult(cr)

	payload, err := marshalResult(report.NewCompileJSON(cr, req.Options.WithIR, cfg.ORAQL != nil))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInternal, err)
	}
	resp := &CompileResponse{
		ModuleHash: moduleHash,
		ConfigHash: configHash,
		CompileMS:  float64(time.Since(start).Microseconds()) / 1000,
		Result:     payload,
	}
	s.storeDiskResponse(key, resp)
	s.cache.complete(key, fl, resp)
	completed = true
	return resp, nil
}

// handleCompile is the synchronous endpoint: compile under the request
// deadline, serving repeats of the same (program, options) pair from
// the cross-request result cache.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req CompileRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, err := s.compileOne(r.Context(), &req)
	if err != nil {
		writeError(w, compileStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxBatchItems bounds one /v1/compile/batch request.
const maxBatchItems = 1024

// handleCompileBatch compiles a list of requests in one round trip.
// Items are deduplicated by content hash before touching the worker
// budget — a campaign sweep with heavy key overlap costs one
// compilation per unique key — and results come back in request order
// with per-item errors, so one uncompilable program never fails its
// batch.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req BatchCompileRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item cap", len(req.Items), maxBatchItems)
		return
	}

	// Dedup by the same content hashes that key every cache level.
	type slot struct {
		resp *CompileResponse
		err  error
	}
	keys := make([]string, len(req.Items))
	unique := map[string]*slot{}
	var order []string // first-appearance order, for deterministic scheduling
	for i := range req.Items {
		moduleHash, configHash := cacheKeys(&req.Items[i])
		keys[i] = moduleHash + ":" + configHash
		if _, ok := unique[keys[i]]; !ok {
			unique[keys[i]] = &slot{}
			order = append(order, keys[i])
		}
	}
	firstItem := map[string]*CompileRequest{}
	for i := range req.Items {
		if _, ok := firstItem[keys[i]]; !ok {
			firstItem[keys[i]] = &req.Items[i]
		}
	}

	// Unique items run concurrently, bounded by the worker budget so a
	// fat batch cannot oversubscribe the host past the job pool's cap.
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for _, key := range order {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sl := unique[key]
			sl.resp, sl.err = s.compileOne(r.Context(), firstItem[key])
		}(key)
	}
	wg.Wait()

	out := BatchCompileResponse{Items: make([]BatchCompileItem, len(req.Items)), Unique: len(order)}
	seen := map[string]bool{}
	for i, key := range keys {
		sl := unique[key]
		switch {
		case sl.err != nil:
			out.Items[i] = BatchCompileItem{Error: sl.err.Error(), Code: compileStatus(sl.err)}
		case seen[key]:
			// A duplicate of an earlier item: same payload, and by
			// construction a cache hit.
			dup := *sl.resp
			dup.Cached = true
			out.Items[i] = BatchCompileItem{Response: &dup}
		default:
			out.Items[i] = BatchCompileItem{Response: sl.resp}
			seen[key] = true
		}
	}
	s.met.observeBatch(len(req.Items), len(order))
	writeJSON(w, http.StatusOK, &out)
}

// diskResponseKey derives the persistent key for one compile response.
// The LRU key pair already content-hashes the program and the full
// option set (response shape included), so it is the disk identity too.
func diskResponseKey(key string) string {
	return diskcache.Key("svc-compile", key)
}

// loadDiskResponse fetches a persisted compile response ("" = none).
func (s *Server) loadDiskResponse(key string) (*CompileResponse, bool) {
	if s.cfg.Cache == nil {
		return nil, false
	}
	data, ok := s.cfg.Cache.Get(diskResponseKey(key))
	if !ok {
		return nil, false
	}
	var resp CompileResponse
	if json.Unmarshal(data, &resp) != nil || resp.Result == nil {
		return nil, false
	}
	return &resp, true
}

// storeDiskResponse persists a freshly computed compile response.
func (s *Server) storeDiskResponse(key string, resp *CompileResponse) {
	if s.cfg.Cache == nil {
		return
	}
	data, err := json.Marshal(resp)
	if err != nil {
		return
	}
	s.cfg.Cache.Put(diskResponseKey(key), data)
}

// observeCompileResult books one pipeline run and lifts its analysis
// cache counters into the service metrics. A result that a
// translation-unit artifact served whole ran no pipeline and is not
// booked.
func (s *Server) observeCompileResult(cr *pipeline.CompileResult) {
	if cr.DiskHits() > 0 {
		return
	}
	var anHits, anMisses int64
	for _, as := range cr.AnalysisStats() {
		anHits += as.Hits
		anMisses += as.Misses
	}
	s.met.observeCompile(anHits, anMisses)
}

// handleProbe submits an asynchronous probe campaign.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := req.Spec(driver.StrategyByName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec.Cache = s.cfg.Cache
	j, err := s.submit("probe", "", func(ctx context.Context, j *job) (any, error) {
		spec.Log = j // driver progress lines become job events
		res, perr := driver.ProbeContext(ctx, spec)
		if perr != nil {
			return nil, perr
		}
		s.observeCompileResult(res.Final.Compile)
		return report.NewProbeJSON(res), nil
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

// handleFuzz submits an asynchronous differential-fuzzing campaign.
func (s *Server) handleFuzz(w http.ResponseWriter, r *http.Request) {
	var req FuzzRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Cache = s.cfg.Cache
	j, err := s.submit("fuzz", "", func(ctx context.Context, j *job) (any, error) {
		opts.Ctx = ctx
		opts.Log = j // campaign progress lines become job events
		res, ferr := difftest.Fuzz(opts)
		if ferr != nil {
			return nil, ferr
		}
		return res, nil
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

// handleCampaign submits an asynchronous scripted campaign. The
// script is parsed up front (syntax errors are a 400, not a failed
// job) and runs sandboxed: the interpreter has no filesystem or exec
// bindings, the instruction budget is clamped to the server cap, and
// the wall clock is bounded by CampaignTimeout.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Script == "" {
		writeError(w, http.StatusBadRequest, "empty script")
		return
	}
	if _, err := campaign.Parse(req.Script); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sum := sha256.Sum256([]byte(req.Script))
	sha := hex.EncodeToString(sum[:])
	maxSteps := s.cfg.CampaignMaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < maxSteps {
		maxSteps = req.MaxSteps
	}
	j, err := s.submit("campaign", sha, func(ctx context.Context, j *job) (any, error) {
		res, cerr := campaign.Run(req.Script, campaign.Options{
			Ctx:      ctx,
			Out:      j, // print() lines become streamed job events
			Log:      j, // probe/fuzz progress too
			Workers:  req.Workers,
			Cache:    s.cfg.Cache,
			MaxSteps: maxSteps,
			Timeout:  s.cfg.CampaignTimeout,
		})
		if cerr != nil {
			return nil, cerr
		}
		value, merr := json.Marshal(res.Value)
		if merr != nil {
			return nil, fmt.Errorf("encode campaign value: %w", merr)
		}
		return &CampaignResult{Value: value, Steps: res.Steps, ScriptSHA256: sha}, nil
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.met.observeCampaignScript(sha)
	s.logf("campaign id=%s sha256=%s bytes=%d", j.id, sha, len(req.Script))
	writeJSON(w, http.StatusAccepted, j.info())
}

// handleRegistry lists every registered extension point: probing
// strategies, AA analyses and chains, app configurations, and
// grammar profiles.
func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	var out []RegistryInfo
	for _, reg := range registry.All() {
		info := RegistryInfo{Kind: reg.Kind(), Description: reg.Description()}
		for _, e := range reg.Entries() {
			info.Entries = append(info.Entries, RegistryEntry{
				Name: e.Name, Description: e.Description,
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleJobCancel cancels a queued or running job.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	switch j.info().State {
	case JobQueued:
		// Finish it now; the worker skips terminal jobs it dequeues.
		if j.finish(JobCanceled, "canceled by client", nil) {
			s.met.observeJob(j.kind, JobCanceled)
		}
	case JobRunning:
		j.requestCancel() // the worker records the terminal state
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleJobEvents streams the job's progress lines: the backlog first,
// then live events until the job reaches a terminal state or the
// client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	backlog, ch := j.subscribe()
	defer j.unsubscribe(ch)
	for _, line := range backlog {
		fmt.Fprintln(w, line)
	}
	flush()
	for {
		select {
		case line := <-ch:
			fmt.Fprintln(w, line)
			flush()
		case <-j.done:
			// Drain whatever was broadcast before the job finished.
			for {
				select {
				case line := <-ch:
					fmt.Fprintln(w, line)
				default:
					flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		case <-s.root.Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	warehouseRecords := -1
	if wh := warehouse.Open(s.cfg.Cache); wh != nil {
		warehouseRecords = wh.Load().Len()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.met.render(s.cache, s.cfg.Cache, len(s.queue), cap(s.queue), s.inflight.Load(), s.cfg.Workers, warehouseRecords))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.Draining()
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{
		OK:           !draining,
		Draining:     draining,
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		JobsInflight: s.inflight.Load(),
	})
}
