// Command bench is the repository's benchmark: four closed-loop
// workloads over the probing driver and the compile service, each
// reporting end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run (see README.md).
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench [-seed N] [-seconds N] [-trace 0|1] [-quick] [-out DIR]
//	bench -workload NAME [-seed N] [-seconds N] [-trace 0|1] [-quick] [-out DIR]
//	bench compare -base DIR -head DIR [-claim METRIC@WORKLOAD]
//	bench -update
//
// Without -workload every workload runs in a child process of its own,
// so peak memory and package-level state never carry over between
// workloads. With -workload one workload runs in this process and the
// last line of standard output is its JSON summary.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(o *options, r *result) error
}

var workloads = []workload{
	{"probe-cold", func(o *options, r *result) error { return runProbe(o, r, 1) }},
	{"probe-par", func(o *options, r *result) error { return runProbe(o, r, parWorkers()) }},
	{"probe-warm", runWarm},
	{"serve-mix", runServe},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
	traceDir string
	workDir  string // where runs keep their temporary caches
}

func (o *options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// setupReps is how often a run performs its set-up, full unless the
// run is -quick; setup_s is the median.
func (o *options) setupReps(full int) int {
	if o.quick {
		return 1
	}
	return full
}

func main() {
	if ok, err := childMode(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childEnv, set to "serve", makes the bench binary run as the
// serve-mix server instead of a benchmark.
const childEnv = "ORAQL_BENCH_CHILD"

// childMode runs the process as the server child when childEnv asks
// for it, and reports whether it did.
func childMode() (bool, error) {
	if os.Getenv(childEnv) != "serve" {
		return false, nil
	}
	return true, serveChild(os.Args[1:])
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := &options{workDir: ".bench_build"}
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: campaign order, edits, request schedule, generated programs")
	fs.IntVar(&o.seconds, "seconds", 15, "measurement time per workload run")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and trace files instead of end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke size: one rep over three configurations and 200 serve requests")
	fs.StringVar(&o.out, "out", "", "directory to store each run's full result record in")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write their trace files")
	doUpdate := fs.Bool("update", false, "rewrite bench/expected.json from the current code")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *doUpdate {
		return update(filepath.Join("bench", "expected.json"))
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o, args)
	}
	r, err := runWorkload(o)
	if err != nil {
		return err
	}
	return emit(o, r)
}

// runWorkload runs one workload in this process.
func runWorkload(o *options) (*result, error) {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		r := &result{Workload: w.name, Trace: o.trace, Provenance: newProvenance(o),
			Metrics: map[string]metric{}, RawMetrics: map[string]metric{}}
		if err := w.run(o, r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.HostRefMS = r.meter.medianMS()
		defs := endToEnd
		if o.trace {
			r.fill(perLayer)
			defs = perLayer
			r.RawMetrics = nil
		}
		kept := map[string]metric{}
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
			}
			kept[d.name] = m
		}
		r.Metrics = kept
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// summary is the last line of a single-workload run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints a run's human-readable report to standard error, stores
// its record under -out, and prints the JSON summary line.
func emit(o *options, r *result) error {
	printReport(os.Stderr, r)
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-trace%t-seed%d-%d.json", r.Workload, r.Trace, o.seed, time.Now().UnixNano())
		if err := os.WriteFile(filepath.Join(o.out, name), data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summary{Correct: r.Wrong == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printReport(w *os.File, r *result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	p := r.Provenance
	fmt.Fprintf(tw, "== %s (trace=%t) seed=%d seconds=%d reps=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Trace, p.Seed, p.Seconds, r.Reps, p.Nproc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	fmt.Fprintf(tw, "attempted=%d failed=%d wrong_results=%d host_ref_ms=%.2f (timings scaled to %.0f)\n",
		r.Attempted, r.Failed, r.Wrong, r.HostRefMS, refNominalMS)
	for _, pr := range r.Problems {
		fmt.Fprintf(tw, "  problem: %s\n", pr)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if len(r.Rows) > 0 {
		fmt.Fprintf(tw, "  input\tops\tmedian ms\tcompiles\tconvictions\n")
		for _, rw := range r.Rows {
			fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%d\t%d\n", rw.Input, rw.Ops, rw.MedianMS, rw.Compiles, rw.Convictions)
		}
	}
	tw.Flush()
}

// runAll runs every workload, each in a child process, untraced and
// then (with -trace 1) traced, and fails when any output was wrong or
// any operation failed.
func runAll(o *options, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	passes := []bool{false}
	if o.trace {
		passes = append(passes, true)
	}
	var bad []string
	for _, traced := range passes {
		for _, w := range workloads {
			trace := "0"
			if traced {
				trace = "1"
			}
			// Later flags win, so these override any in args.
			childArgs := append(append([]string(nil), args...), "-workload", w.name, "-trace", trace)
			s, err := runChild(exe, childArgs)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !s.Correct || s.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s (trace=%t): correct=%t failed=%d of %d", w.name, traced, s.Correct, s.Failed, s.Attempted))
			}
		}
	}
	if len(bad) > 0 {
		return errors.New("wrong or failed operations: " + strings.Join(bad, "; "))
	}
	return nil
}

// runChild runs one workload child, passing its report through, and
// returns its summary line.
func runChild(exe string, args []string) (*summary, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var s summary
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return nil, fmt.Errorf("child summary %q: %w", last, err)
	}
	fmt.Println(last)
	return &s, nil
}
