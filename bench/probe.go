package main

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/driver"
)

// quickConfigs are the configurations a -quick run probes.
var quickConfigs = []string{"lulesh-seq", "minigmg-sse", "xsbench-seq"}

// configs returns the app configurations a run covers.
func configs(o *options) []*apps.Config {
	if !o.quick {
		return apps.All()
	}
	var out []*apps.Config
	for _, id := range quickConfigs {
		out = append(out, apps.ByID(id))
	}
	return out
}

// probeSpec is the cold chunked campaign of one configuration.
func probeSpec(c *apps.Config, workers int) *driver.BenchSpec {
	s := c.Spec()
	s.Strategy = driver.Chunked
	s.Workers = workers
	return s
}

// parWorkers is probe-par's worker count: the CLI default -j 0.
func parWorkers() int { return runtime.NumCPU() }

// editSource appends a helper nothing calls after every existing
// function, so the existing functions keep their content hashes while
// the module as a whole is new to the disk cache.
func editSource(src string, seed int64) string {
	return src + fmt.Sprintf("\nint bench_edit_%d(int x) {\n\treturn x * 3 + %d;\n}\n", seed, seed%97)
}

// probeOp is one campaign of a probe workload.
type probeOp struct {
	input  string // row name: the config id, "+edit" for an edited program
	config string
	edited bool
	run    func() (*driver.Result, error)
}

// opSample is one timed operation. shot is the index of the host
// reference shot taken right before it, scale the factor that converts
// its times to the nominal host (hostref.go).
type opSample struct {
	input string
	dur   time.Duration
	cpu   time.Duration
	alloc uint64
	shot  int
	scale float64
}

// opScaleWindow is how many reference shots on each side of an
// operation its host scale takes into account.
const opScaleWindow = 4

// timeOp runs op and measures its wall time, CPU time and heap
// allocation. Process-wide counters are exact here because every probe
// workload runs one operation at a time.
func timeOp(input string, op func() error) (opSample, error) {
	a0, c0 := totalAlloc(), cpuTime()
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	c1, a1 := cpuTime(), totalAlloc()
	return opSample{input: input, dur: d, cpu: c1 - c0, alloc: a1 - a0}, err
}

// measureProbes runs reps of campaigns until the run's time is up,
// always finishing the rep it is in so every input runs equally often.
// nextRep returns a rep's campaigns and an optional clean-up. A host
// reference shot precedes every campaign, and each campaign is scaled
// by the shots around it.
func measureProbes(o *options, r *result, exp *expectations, nextRep func(rep int) ([]probeOp, func() error, error)) error {
	deadline := time.Now().Add(o.duration())
	rows, order := map[string]*row{}, []string{}
	var samples []opSample
	var peaks []float64
	for rep := 0; ; rep++ {
		ops, cleanup, err := nextRep(rep)
		if err != nil {
			return err
		}
		if err := resetPeakRSS(0); err != nil {
			return err
		}
		for _, op := range ops {
			shot := r.meter.mark()
			r.meter.shot()
			var res *driver.Result
			s, err := timeOp(op.input, func() (err error) {
				res, err = op.run()
				return err
			})
			r.Attempted++
			if err != nil {
				r.fail("%s: %v", op.input, err)
				continue
			}
			s.shot = shot
			samples = append(samples, s)
			exp.checkProbe(r, op.config, outcomeOf(res), op.edited)
			rw := rows[op.input]
			if rw == nil {
				rw = &row{Input: op.input}
				rows[op.input] = rw
				order = append(order, op.input)
			}
			rw.Ops++
			rw.Compiles = res.Compiles
			rw.Convictions = len(res.GuiltyQueries())
		}
		peak, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		if cleanup != nil {
			if err := cleanup(); err != nil {
				return err
			}
		}
		r.Reps++
		if o.quick || time.Now().After(deadline) {
			break
		}
	}
	byInput := map[string][]float64{}
	for i, s := range samples {
		samples[i].scale = r.meter.scale(s.shot-opScaleWindow, s.shot+opScaleWindow+1)
		byInput[s.input] = append(byInput[s.input], ms(s.dur))
	}
	for _, in := range order {
		rw := rows[in]
		rw.MedianMS = median(byInput[in])
		r.Rows = append(r.Rows, *rw)
	}
	r.set(endToEnd, "peak_rss_mb", median(peaks))
	summarize(r, samples)
	return nil
}

// summarize derives the time and allocation metrics of a sequential
// probe workload, host-scaled and as measured.
func summarize(r *result, samples []opSample) {
	lat, latRaw := make([]float64, len(samples)), make([]float64, len(samples))
	var busy, busyRaw, cpu, cpuRaw float64
	var alloc uint64
	for i, s := range samples {
		lat[i], latRaw[i] = s.scale*ms(s.dur), ms(s.dur)
		busy += s.scale * s.dur.Seconds()
		busyRaw += s.dur.Seconds()
		cpu += s.scale * ms(s.cpu)
		cpuRaw += ms(s.cpu)
		alloc += s.alloc
	}
	setTimings(r.Metrics, lat, busy, cpu)
	setTimings(r.RawMetrics, latRaw, busyRaw, cpuRaw)
	r.set(endToEnd, "alloc_mb_per_op", ratio(mb(alloc), float64(len(samples))))
}

// setTimings sets the timing metrics from the ops' latencies in ms, the
// seconds the ops kept the system busy and their CPU time in ms.
func setTimings(into map[string]metric, lat []float64, busy, cpuMS float64) {
	n := float64(len(lat))
	setMetric(into, endToEnd, "ops_per_s", ratio(n, busy))
	setMetric(into, endToEnd, "op_ms_geomean", geomean(lat))
	setMetric(into, endToEnd, "op_ms_p90", percentile(lat, 0.9))
	setMetric(into, endToEnd, "cpu_ms_per_op", ratio(cpuMS, n))
}

// timeSetup runs setup reps times, each bracketed by host reference
// shots, and reports the median duration.
func timeSetup(r *result, reps int, setup func(rep int) error) error {
	var scaled, raw []float64
	for i := 0; i < reps; i++ {
		mark := r.meter.mark()
		r.meter.shots(3)
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		r.meter.shots(3)
		scaled = append(scaled, d*r.meter.scale(mark, mark+6))
		raw = append(raw, d)
	}
	setMetric(r.Metrics, endToEnd, "setup_s", median(scaled))
	setMetric(r.RawMetrics, endToEnd, "setup_s", median(raw))
	return nil
}

// warmUp is the probe workloads' common set-up: parse the correctness
// gate and run one small campaign so lazy initialisation is paid before
// timing starts.
func warmUp(workers int) (*expectations, error) {
	exp, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	if _, err := driver.Probe(probeSpec(apps.ByID("quicksilver-openmp"), workers)); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return exp, nil
}

// runProbe is the probe-cold and probe-par workload: sweeps of cold
// chunked campaigns over every configuration, in an order shuffled per
// sweep.
func runProbe(o *options, r *result, workers int) error {
	var exp *expectations
	err := timeSetup(r, o.setupReps(5), func(int) error {
		var err error
		exp, err = warmUp(workers)
		return err
	})
	if err != nil {
		return err
	}
	cfgs := configs(o)
	if o.trace {
		return traceProbe(o, r, exp, cfgs, workers)
	}
	rng := rand.New(rand.NewSource(o.seed))
	return measureProbes(o, r, exp, func(int) ([]probeOp, func() error, error) {
		var ops []probeOp
		for _, i := range rng.Perm(len(cfgs)) {
			c := cfgs[i]
			ops = append(ops, probeOp{input: c.ID, config: c.ID, run: func() (*driver.Result, error) {
				return driver.Probe(probeSpec(c, workers))
			}})
		}
		return ops, nil, nil
	})
}

// runWarm is the probe-warm workload. Set-up seeds one disk cache with
// a cold campaign per configuration. Each rep copies that cache
// (untimed) and reprobes every configuration twice, unchanged and
// edited, each time through a freshly opened store.
func runWarm(o *options, r *result) error {
	work, err := os.MkdirTemp(o.workDir, "warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfgs := configs(o)
	var exp *expectations
	var seedDir string
	err = timeSetup(r, o.setupReps(3), func(rep int) error {
		if seedDir != "" {
			if err := os.RemoveAll(seedDir); err != nil {
				return err
			}
		}
		var err error
		if exp, err = warmUp(1); err != nil {
			return err
		}
		seedDir = filepath.Join(work, fmt.Sprintf("seed-%d", rep))
		store, err := diskcache.Open(seedDir)
		if err != nil {
			return err
		}
		for _, c := range cfgs {
			spec := probeSpec(c, 1)
			spec.Cache = store
			res, err := driver.Probe(spec)
			if err != nil {
				return fmt.Errorf("seed %s: %w", c.ID, err)
			}
			exp.checkProbe(r, c.ID, outcomeOf(res), false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if o.trace {
		return traceWarm(o, r, exp, cfgs, seedDir, work)
	}
	rng := rand.New(rand.NewSource(o.seed))
	return measureProbes(o, r, exp, func(rep int) ([]probeOp, func() error, error) {
		dir := filepath.Join(work, fmt.Sprintf("rep-%d", rep))
		if err := copyDir(seedDir, dir); err != nil {
			return nil, nil, err
		}
		var ops []probeOp
		for _, i := range rng.Perm(len(cfgs)) {
			for _, edited := range []bool{false, true} {
				op, _ := reprobe(cfgs[i], dir, edited, o.seed)
				ops = append(ops, op)
			}
		}
		return ops, func() error { return os.RemoveAll(dir) }, nil
	})
}

// reprobe is one warm campaign against the cache in dir. It opens the
// store inside the campaign, as a new process would; the returned spec
// holds that store once the campaign ran.
func reprobe(c *apps.Config, dir string, edited bool, seed int64) (probeOp, *driver.BenchSpec) {
	spec := probeSpec(c, 1)
	op := probeOp{input: c.ID, config: c.ID, edited: edited}
	if edited {
		op.input += "+edit"
		spec.Compile.Source = editSource(spec.Compile.Source, seed)
	}
	op.run = func() (*driver.Result, error) {
		store, err := diskcache.Open(dir)
		if err != nil {
			return nil, err
		}
		spec.Cache = store
		return driver.Probe(spec)
	}
	return op, spec
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
