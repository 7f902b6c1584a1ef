package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/service"
)

// Serve-mix shape: two closed-loop clients with one connection each,
// 80% of requests drawn uniformly from the hot keys (64 with every
// configuration), the rest fresh generated programs. The hot keys
// outnumber the server's 32 LRU entries, so hits split between the
// memory and disk tiers.
const (
	serveClients   = 2
	serveWorkers   = 2
	serveLRU       = 32
	hotShare       = 0.8
	freshChecks    = 64
	quickRequests  = 200
	scheduleLength = 1 << 17
)

// serveChild runs the compile service as `oraql-serve -workers 2
// -cache-entries 32 -cache-dir DIR -quiet` configures it, on a loopback
// port it prints as its first line of output. Besides the service's
// routes it answers GET /bench/memstats with the process's cumulative
// heap allocation. It stops when its standard input closes.
func serveChild(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("serve child: want one cache directory argument, got %q", args)
	}
	cache, err := cliutil.OpenCache(args[0], 0)
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Workers: serveWorkers, CacheEntries: serveLRU, Cache: cache})
	mux := http.NewServeMux()
	mux.Handle("/", svc)
	mux.HandleFunc("GET /bench/memstats", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%d\n", totalAlloc())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes the pipe
		close(stdinClosed)
	}()
	select {
	case err := <-errCh:
		return err
	case <-stdinClosed:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	return srv.Shutdown(ctx)
}

// server is a running serve child.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
	http  *http.Client
}

// startServer launches a serve child on a fresh cache directory and
// waits until /healthz answers.
func startServer(dir string) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, dir)
	cmd.Env = append(os.Environ(), childEnv+"=serve")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, http: &http.Client{Timeout: 30 * time.Second}}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("serve child did not report its address: %w", err)
	}
	s.base = "http://" + strings.TrimSpace(line)
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("serve child not healthy after 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop closes the child's input, which shuts it down, and waits for it
// to exit, killing it if it does not within ten seconds.
func (s *server) stop() {
	s.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status of a stopped child carries no result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reports the kill
		<-done
	}
}

// get returns the body of a GET request.
func (s *server) get(path string) (string, error) {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

// alloc reads the server's cumulative heap allocation.
func (s *server) alloc() (uint64, error) {
	body, err := s.get("/bench/memstats")
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(strings.TrimSpace(body), 10, 64)
}

// request is one entry of the seeded schedule: a hot key index, or -1
// and the generator seed of a fresh program.
type request struct {
	hot   int
	fresh int64
}

func schedule(seed int64, hot int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, scheduleLength)
	for i := range out {
		if rng.Float64() < hotShare {
			out[i] = request{hot: rng.Intn(hot)}
		} else {
			out[i] = request{hot: -1, fresh: seed<<32 | int64(i)}
		}
	}
	return out
}

// freshRequest is the compile request of a generated program.
func freshRequest(seed int64) service.CompileRequest {
	p := progen.Generate(seed, progen.Options{})
	return service.CompileRequest{Program: service.ProgramSpec{Source: p.Source, SourceFile: p.FileName}}
}

// freshConfig is the compilation the service runs for a fresh program.
func freshConfig(seed int64) pipeline.Config {
	p := progen.Generate(seed, progen.Options{})
	return pipeline.Config{Name: p.FileName, Source: p.Source, SourceFile: p.FileName,
		Frontend: minic.Options{Dialect: minic.DialectC, Model: minic.ModelSeq}}
}

// reply is one answered request. scale converts its latency to the
// nominal host (hostref.go).
type reply struct {
	req     request
	lat     time.Duration
	scale   float64
	cached  bool
	exeHash string
	err     error
}

// client sends one request at a time over its own connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) compile(body []byte) (cached bool, exeHash string, err error) {
	resp, err := c.http.Post(c.base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return false, "", fmt.Errorf("HTTP %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var out struct {
		Cached bool `json:"cached"`
		Result struct {
			ExeHash string `json:"exe_hash"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return false, "", fmt.Errorf("decode reply: %w", err)
	}
	return out.Cached, out.Result.ExeHash, nil
}

// drive runs the closed loop: each client takes the next scheduled
// request, counting from next, until limit requests were taken or the
// deadline (when not zero) passed. tr, when non-nil, gets a span per
// request.
func drive(base string, sched []request, next *atomic.Int64, limit int, bodies [][]byte, deadline time.Time, tr *tracer) ([]reply, time.Duration) {
	per := make([][]reply, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.http.CloseIdleConnections()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				rq := sched[i]
				var body []byte
				if rq.hot >= 0 {
					body = bodies[rq.hot]
				} else {
					var err error
					if body, err = json.Marshal(freshRequest(rq.fresh)); err != nil {
						per[ci] = append(per[ci], reply{req: rq, err: err})
						continue
					}
				}
				sp := tr.begin(10+ci, -1, "service.request", map[string]any{"hot": rq.hot >= 0})
				start := time.Now()
				cached, hash, err := c.compile(body)
				lat := time.Since(start)
				tr.end(sp)
				per[ci] = append(per[ci], reply{req: rq, lat: lat, scale: 1, cached: cached, exeHash: hash, err: err})
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []reply
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// serveSegment is how long the clients run between host reference
// shots.
const serveSegment = 2 * time.Second

// runServe is the serve-mix workload.
func runServe(o *options, r *result) error {
	work, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var exp *expectations
	var keys []hotKey
	var bodies [][]byte
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// Set-up: start a server on an empty cache, then send every hot key
	// once so the timed window sees the steady state of both tiers.
	err = timeSetup(r, o.setupReps(5), func(rep int) error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		var err error
		if exp, err = loadExpectations(); err != nil {
			return err
		}
		keys = hotKeys(configs(o))
		bodies = bodies[:0]
		for _, k := range keys {
			b, err := json.Marshal(k.req)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
		if srv, err = startServer(filepath.Join(work, fmt.Sprintf("cache-%d", rep))); err != nil {
			return err
		}
		warm := make([]request, len(keys))
		for i := range warm {
			warm[i] = request{hot: i}
		}
		var next atomic.Int64
		replies, _ := drive(srv.base, warm, &next, len(warm), bodies, time.Time{}, nil)
		for _, rp := range replies {
			if rp.err != nil {
				return fmt.Errorf("warm-up %s: %w", keys[rp.req.hot].name, rp.err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var tr *tracer
	var before map[string]float64
	if o.trace {
		tr = newTracer()
		if before, err = scrape(srv); err != nil {
			return err
		}
	}
	pid := srv.cmd.Process.Pid
	alloc0, err := srv.alloc()
	if err != nil {
		return err
	}
	// The window runs in segments; between them the clients pause for
	// three host reference shots while the server idles, and each
	// segment is scaled by the shots on both sides of it.
	sched := schedule(o.seed, len(keys))
	limit := len(sched)
	if o.quick {
		limit = quickRequests
	}
	end := time.Now().Add(o.duration())
	var next atomic.Int64
	var replies []reply
	var wall, wallRaw, cpu, cpuRaw float64
	var peaks []float64
	bound := r.meter.mark()
	r.meter.shots(3)
	for {
		var segEnd time.Time
		if !o.quick {
			segEnd = time.Now().Add(serveSegment)
			if segEnd.After(end) {
				segEnd = end
			}
		}
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
		cpu0, err := procCPUTime(pid)
		if err != nil {
			return err
		}
		seg, d := drive(srv.base, sched, &next, limit, bodies, segEnd, tr)
		cpu1, err := procCPUTime(pid)
		if err != nil {
			return err
		}
		peak, err := peakRSSMB(pid)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		nextBound := r.meter.mark()
		r.meter.shots(3)
		scale := r.meter.scale(bound, nextBound+3)
		bound = nextBound
		for i := range seg {
			seg[i].scale = scale
		}
		replies = append(replies, seg...)
		wall += scale * d.Seconds()
		wallRaw += d.Seconds()
		cpu += scale * ms(cpu1-cpu0)
		cpuRaw += ms(cpu1 - cpu0)
		if o.quick || int(next.Load()) >= limit || !time.Now().Before(end) {
			break
		}
	}
	alloc1, err := srv.alloc()
	if err != nil {
		return err
	}
	var after map[string]float64
	if o.trace {
		if after, err = scrape(srv); err != nil {
			return err
		}
	}
	srv.stop()
	srv = nil
	r.Reps = 1

	// Correctness: every hot key's executable against expected.json, and
	// a seeded sample of the fresh programs recompiled in-process.
	var lat, latRaw []float64
	var fresh []reply
	classes := map[string][]float64{}
	for _, rp := range replies {
		r.Attempted++
		if rp.err != nil {
			r.fail("%v", rp.err)
			continue
		}
		lat = append(lat, rp.scale*ms(rp.lat))
		latRaw = append(latRaw, ms(rp.lat))
		class := "fresh"
		if rp.req.hot >= 0 {
			class = "hot"
			k := keys[rp.req.hot]
			if want, ok := exp.HotKeys[k.name]; !ok || want != rp.exeHash {
				r.wrong("%s: served exe hash %s, want %q", k.name, rp.exeHash, want)
			}
		} else {
			fresh = append(fresh, rp)
		}
		if rp.cached {
			class += "/cached"
		} else {
			class += "/compiled"
		}
		classes[class] = append(classes[class], ms(rp.lat))
	}
	ls := newLayerStats()
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	if len(fresh) > freshChecks {
		fresh = fresh[:freshChecks]
	}
	for _, rp := range fresh {
		cfg := freshConfig(rp.req.fresh)
		cr, _, err := ls.compile(tr, -1, cfg)
		if err != nil {
			return err
		}
		if cr.ExeHash() != rp.exeHash {
			r.wrong("%s: served exe hash %s, recompiled %s", cfg.Name, rp.exeHash, cr.ExeHash())
		}
	}
	for _, class := range []string{"hot/cached", "hot/compiled", "fresh/cached", "fresh/compiled"} {
		if xs := classes[class]; len(xs) > 0 {
			r.Rows = append(r.Rows, row{Input: class, Ops: len(xs), MedianMS: median(xs)})
		}
	}
	if o.trace {
		ls.report(r)
		reportService(r, replies, before, after)
		return tr.write(o.traceDir, r.Workload)
	}
	setTimings(r.Metrics, lat, wall, cpu)
	setTimings(r.RawMetrics, latRaw, wallRaw, cpuRaw)
	r.set(endToEnd, "alloc_mb_per_op", ratio(mb(alloc1-alloc0), float64(len(replies))))
	r.set(endToEnd, "peak_rss_mb", median(peaks))
	return nil
}

// reportService sets the service-layer metrics from the client's
// timings and the server's /metrics deltas over the window.
func reportService(r *result, replies []reply, before, after map[string]float64) {
	var cached, compiled []float64
	for _, rp := range replies {
		if rp.err != nil {
			continue
		}
		if rp.cached {
			cached = append(cached, ms(rp.lat))
		} else {
			compiled = append(compiled, ms(rp.lat))
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(cached) + len(compiled))
	lru := delta("oraql_result_cache_hits_total")
	r.set(perLayer, "service.cached_ms_p50", median(cached))
	r.set(perLayer, "service.cached_ms_p99", percentile(cached, 0.99))
	r.set(perLayer, "service.compile_ms_p50", median(compiled))
	r.set(perLayer, "service.compile_ms_p99", percentile(compiled, 0.99))
	r.set(perLayer, "service.lru_hit_ratio", ratio(lru, n))
	r.set(perLayer, "service.disk_hit_ratio", ratio(float64(len(cached))-lru, n))
	r.set(perLayer, "service.compiles_per_request", ratio(delta("oraql_compiles_total"), n))
	r.set(perLayer, "service.server_ms_p50", histogramMedian(before, after))
}

// compileBucket is the /metrics series of the compile route's latency
// histogram; scrape keys its buckets by their upper bound.
const compileBucket = `oraql_request_duration_seconds_bucket{route="/v1/compile",le="`

// scrape reads the counters the service metrics need from /metrics.
func scrape(s *server) (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if name != "oraql_result_cache_hits_total" && name != "oraql_compiles_total" && !strings.HasPrefix(name, compileBucket) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	if _, ok := out["oraql_compiles_total"]; !ok {
		return nil, errors.New("/metrics: no oraql_compiles_total")
	}
	return out, nil
}

// histogramMedian estimates the median server-side compile-route
// latency in ms over the window from the cumulative bucket deltas,
// interpolating linearly inside the bucket that holds it.
func histogramMedian(before, after map[string]float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for name, v := range after {
		le, ok := strings.CutPrefix(name, compileBucket)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64) // "+Inf" parses too
		if err != nil {
			continue
		}
		bs = append(bs, bucket{bound, v - before[name]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	half := bs[len(bs)-1].count / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.count >= half {
			frac := ratio(half-prev, b.count-prev)
			return 1000 * (lo + frac*(b.le-lo))
		}
		lo, prev = b.le, b.count
	}
	return 1000 * bs[len(bs)-1].le
}
