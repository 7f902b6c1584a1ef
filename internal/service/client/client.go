// Package client is the Go client for the oraql-serve HTTP API: the
// `oraql probe -server` mode and the serve-smoke/bench tooling talk to
// the service through it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"github.com/oraql/go-oraql/internal/service"
)

// RetryPolicy governs retries of idempotent requests. Only GETs are
// ever retried: a POST that failed mid-flight may have side effects
// (a submitted job, a compilation already running), so resubmitting it
// is the caller's decision, never the transport's. Retryable failures
// are network errors and 502/503/504 replies — a fleet instance that
// is draining, queue-full, or mid-restart answers 503, and the retry
// (with jittered exponential backoff) usually lands after the blip or
// on a healthier instance behind the same load balancer.
type RetryPolicy struct {
	// MaxAttempts is the total try budget, first attempt included
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2s).
	MaxDelay time.Duration

	// Test seams (nil = real clock/rand).
	sleep  func(time.Duration)
	jitter func(n int64) int64
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// backoffFor sleeps the jittered exponential backoff before retry
// number retry (0-based): uniform in [d/2, d] with d = Base<<retry
// capped at MaxDelay, so a thundering herd of retries desynchronizes.
func (p *RetryPolicy) backoffFor(retry int) {
	base, cap_, sleep, jitter := 50*time.Millisecond, 2*time.Second, time.Sleep, rand.Int63n
	if p != nil {
		if p.BaseDelay > 0 {
			base = p.BaseDelay
		}
		if p.MaxDelay > 0 {
			cap_ = p.MaxDelay
		}
		if p.sleep != nil {
			sleep = p.sleep
		}
		if p.jitter != nil {
			jitter = p.jitter
		}
	}
	d := base << retry
	if d > cap_ || d <= 0 {
		d = cap_
	}
	sleep(d/2 + time.Duration(jitter(int64(d/2)+1)))
}

// retryableStatus reports whether an HTTP status is worth a retry.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// Client talks to one oraql-serve instance.
type Client struct {
	// Base is the server address, e.g. "http://localhost:8347".
	Base string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Retry, when non-nil, enables retries of idempotent requests.
	Retry *RetryPolicy
}

// New returns a client for the given base URL; a bare host:port is
// taken as http.
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON reply into out,
// translating non-2xx replies into the server's error envelope.
// Idempotent requests (GETs) are retried per c.Retry; everything else
// gets exactly one attempt.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = data
	}
	attempts := 1
	if c.Retry != nil && method == http.MethodGet {
		attempts = c.Retry.attempts()
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.Retry.backoffFor(attempt - 1)
			if ctx.Err() != nil {
				return err // the pre-backoff failure, not the cancellation
			}
		}
		var retryable bool
		retryable, err = c.doOnce(ctx, method, path, payload, out)
		if err == nil || !retryable || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// doOnce is one request/response exchange. retryable marks failures a
// fresh attempt could fix (transport errors, 502/503/504).
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) (retryable bool, err error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return true, err
	}
	if resp.StatusCode/100 != 2 {
		var envelope service.ErrorResponse
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			return retryableStatus(resp.StatusCode), fmt.Errorf("server: %s (HTTP %d)", envelope.Error, resp.StatusCode)
		}
		return retryableStatus(resp.StatusCode), fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return false, nil
	}
	return false, json.Unmarshal(data, out)
}

// Compile runs a synchronous compilation.
func (c *Client) Compile(ctx context.Context, req *service.CompileRequest) (*service.CompileResponse, error) {
	var out service.CompileResponse
	if err := c.do(ctx, http.MethodPost, "/v1/compile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CompileBatch resolves a list of compile requests in one round trip;
// the server deduplicates items by content hash and returns per-item
// results in request order.
func (c *Client) CompileBatch(ctx context.Context, req *service.BatchCompileRequest) (*service.BatchCompileResponse, error) {
	var out service.BatchCompileResponse
	if err := c.do(ctx, http.MethodPost, "/v1/compile/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Probe submits a probe campaign and returns the queued job.
func (c *Client) Probe(ctx context.Context, req *service.ProbeRequest) (*service.JobInfo, error) {
	var out service.JobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/probe", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fuzz submits a fuzzing campaign and returns the queued job.
func (c *Client) Fuzz(ctx context.Context, req *service.FuzzRequest) (*service.JobInfo, error) {
	var out service.JobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/fuzz", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Campaign submits a scripted campaign and returns the queued job.
func (c *Client) Campaign(ctx context.Context, req *service.CampaignRequest) (*service.JobInfo, error) {
	var out service.JobInfo
	if err := c.do(ctx, http.MethodPost, "/v1/campaign", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Warehouse runs one synchronous forensics operation (stats, query,
// export) against the server's warehouse corpus.
func (c *Client) Warehouse(ctx context.Context, req *service.WarehouseRequest) (*service.WarehouseResponse, error) {
	var out service.WarehouseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/warehouse", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Registry lists the registered extension points.
func (c *Client) Registry(ctx context.Context) ([]service.RegistryInfo, error) {
	var out []service.RegistryInfo
	if err := c.do(ctx, http.MethodGet, "/v1/registry", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Job polls one job's status.
func (c *Client) Job(ctx context.Context, id string) (*service.JobInfo, error) {
	var out service.JobInfo
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (*service.JobInfo, error) {
	var out service.JobInfo
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls a job until it reaches a terminal state.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*service.JobInfo, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if info.Terminal() {
			return info, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return info, ctx.Err()
		}
	}
}

// Events streams a job's progress lines to w until the job finishes
// or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintln(w, sc.Text())
	}
	return sc.Err()
}

// Metrics scrapes the Prometheus text endpoint.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Health polls /healthz.
func (c *Client) Health(ctx context.Context) (*service.HealthResponse, error) {
	var out service.HealthResponse
	// /healthz answers 503 while draining but still encodes the body;
	// decode manually to keep the info.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
