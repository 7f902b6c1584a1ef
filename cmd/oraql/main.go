// Command oraql is the ORAQL probing driver CLI: it runs the full
// workflow (baseline, fully-optimistic attempt, bisection) on a
// benchmark configuration or a standalone minic source file and
// reports the locally maximal optimistic sequence — either locally or
// against an oraql-serve instance (-server).
//
// Usage:
//
//	oraql list
//	oraql probe <config-id> [-strategy chunked|freq|linear] [-j N] [-v] [-json]
//	oraql probe -file prog.mc [-model seq|openmp|tasks|mpi|offload] [-fortran] [-views]
//	oraql probe <config-id> -server http://localhost:8347   # same probe, remotely
//	oraql report <config-id>        # Fig. 3-style pessimistic dump
//	oraql run <config-id>           # baseline compile+run only
//	oraql run <script.oraql>        # scripted campaign (see internal/campaign)
//
// Exit codes: 0 success, 1 operational failure, 2 usage error. With
// -json, failures are printed as the shared JSON error envelope.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/campaign"
	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"

	// Registered for `list -grammars`; probing does not consume it.
	_ "github.com/oraql/go-oraql/internal/progen"
)

func main() {
	argv := os.Args[1:]
	err := run(argv, os.Stdout, os.Stderr)
	os.Exit(cliutil.Report(os.Stderr, "oraql", cliutil.WantsJSON(argv), err))
}

func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) < 1 {
		usage(stderr)
		return cliutil.Usagef("missing subcommand")
	}
	cmd, args := argv[0], argv[1:]
	switch cmd {
	case "list":
		return cmdList(args, stdout)
	case "probe":
		return cmdProbe(args, stdout, stderr)
	case "report":
		return cmdReport(args, stdout)
	case "run":
		return cmdRun(args, stdout, stderr)
	case "sweep":
		return cmdSweep(args, stdout, stderr)
	case "warehouse":
		return cmdWarehouse(args, stdout, stderr)
	default:
		usage(stderr)
		return cliutil.Usagef("unknown subcommand %q", cmd)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  oraql list
  oraql probe <config-id> [-strategy chunked|freq|linear] [-j N] [-no-exe-cache] [-v] [-json]
  oraql probe -file prog.mc [-model seq|openmp|tasks|mpi|offload] [-fortran] [-views] [-target sub]
  oraql probe ... -server http://host:8347 [-poll 250ms]
  oraql report <config-id>
  oraql run <config-id>
  oraql run <script.oraql> [-j N] [-cache-dir DIR] [-max-steps N] [-timeout D] [-v] [-json]
  oraql run <script.oraql> -server http://host:8347   # sandboxed POST /v1/campaign
  oraql sweep [config-id ...] [-cache-dir DIR] [-json]
  oraql warehouse stats|query|export|ingest -cache-dir DIR [...]
  oraql warehouse query -cache-dir DIR [-by pass|shape|func|grammar] [-kind K] [-app A]
  oraql warehouse export <config-id>|-file prog.mc [-cache-dir DIR]
  oraql warehouse ingest -cache-dir DIR [-grammar G] report.json...`)
}

func cmdList(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	all := fs.Bool("all", false, "print every registry: strategies, AA analyses/chains, app configs, grammar profiles")
	strategies := fs.Bool("strategies", false, "print registered probing strategies")
	chains := fs.Bool("chains", false, "print registered AA analyses and chain orders")
	grammars := fs.Bool("grammars", false, "print registered fuzz-grammar profiles")
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapUsage(err)
	}
	var kinds []string
	if *strategies {
		kinds = append(kinds, "strategy")
	}
	if *chains {
		kinds = append(kinds, "aa-analysis", "aa-chain")
	}
	if *grammars {
		kinds = append(kinds, "grammar")
	}
	switch {
	case *all:
		cliutil.PrintRegistries(stdout)
	case len(kinds) > 0:
		cliutil.PrintRegistries(stdout, kinds...)
	default:
		fmt.Fprintf(stdout, "%-22s %-14s %-22s %s\n", "ID", "BENCHMARK", "MODEL", "SOURCE")
		for _, c := range apps.All() {
			fmt.Fprintf(stdout, "%-22s %-14s %-22s %s\n", c.ID, c.Benchmark, c.ModelLabel, c.SourceFiles)
		}
	}
	return nil
}

// probeArgs is the parsed `oraql probe` invocation, kept in wire-able
// form so the same invocation can run locally or against a server.
type probeArgs struct {
	id      string
	file    string
	source  string
	model   string
	fortran bool
	views   bool
	target  string

	strategy string
	workers  int
	noCache  bool
	cacheDir string
	ranks    int
	verbose  bool
	jsonOut  bool

	server string
	poll   time.Duration
}

func parseProbeArgs(args []string) (*probeArgs, error) {
	pa := &probeArgs{}
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&pa.file, "file", "", "standalone minic source file instead of a config id")
	fs.StringVar(&pa.model, "model", "seq", "parallel model for -file (seq|openmp|tasks|mpi|offload)")
	fs.BoolVar(&pa.fortran, "fortran", false, "Fortran dialect (descriptor arrays, no TBAA) for -file")
	fs.BoolVar(&pa.views, "views", false, "Kokkos/Thrust-style boxed heap arrays for -file")
	fs.StringVar(&pa.target, "target", "", "-opt-aa-target substring (restrict ORAQL to a target)")
	fs.StringVar(&pa.strategy, "strategy", "chunked", "bisection strategy by registered name (`oraql list -strategies`)")
	fs.IntVar(&pa.workers, "j", 0, "probing workers: above 1, one speculative test beside the consumed one (0 = NumCPU, 1 = sequential)")
	fs.BoolVar(&pa.noCache, "no-exe-cache", false, "disable the executable-hash test cache")
	fs.StringVar(&pa.cacheDir, "cache-dir", "", "persistent cache directory: compile artifacts and campaign state survive across processes (local mode only)")
	fs.IntVar(&pa.ranks, "ranks", 1, "simulated MPI ranks")
	fs.BoolVar(&pa.verbose, "v", false, "verbose driver log")
	fs.BoolVar(&pa.jsonOut, "json", false, "print the probe result as JSON (and failures as the JSON envelope)")
	fs.StringVar(&pa.server, "server", "", "probe against this oraql-serve address instead of locally")
	fs.DurationVar(&pa.poll, "poll", 250*time.Millisecond, "job poll interval in -server mode")

	if len(args) > 0 && args[0][0] != '-' {
		pa.id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, cliutil.WrapUsage(err)
	}
	if _, err := driver.StrategyByName(pa.strategy); err != nil {
		return nil, cliutil.WrapUsage(err)
	}
	switch {
	case pa.file != "":
		src, err := os.ReadFile(pa.file)
		if err != nil {
			return nil, err
		}
		pa.source = string(src)
	case pa.id == "":
		return nil, cliutil.Usagef("need a config id or -file")
	}
	return pa, nil
}

// request builds the wire form of the invocation: sent as is with
// -server, translated in-process without.
func (pa *probeArgs) request() *request.ProbeRequest {
	req := &request.ProbeRequest{
		Strategy:        pa.strategy,
		Workers:         pa.workers,
		Target:          pa.target,
		DisableExeCache: pa.noCache,
	}
	if pa.file != "" {
		req.Program = request.ProgramSpec{
			Source: pa.source, SourceFile: pa.file,
			Model: pa.model, Fortran: pa.fortran, Views: pa.views, Ranks: pa.ranks,
		}
	} else {
		req.Program = request.ProgramSpec{ConfigID: pa.id}
	}
	return req
}

func cmdProbe(args []string, stdout, stderr io.Writer) error {
	pa, err := parseProbeArgs(args)
	if err != nil {
		return err
	}
	if pa.server != "" {
		return probeViaServer(pa, stdout, stderr)
	}
	spec, err := pa.request().Spec(driver.StrategyByName)
	if errors.Is(err, request.ErrUnknownModel) {
		return cliutil.WrapUsage(err)
	}
	if err != nil {
		return err
	}
	if spec.Cache, err = cliutil.OpenCache(pa.cacheDir, 0); err != nil {
		return err
	}
	spec.Log = stderr
	res, err := driver.Probe(spec)
	if err != nil {
		return err
	}
	return emitProbe(report.NewProbeJSON(res), pa.jsonOut, stdout)
}

// probeViaServer submits the same probe to an oraql-serve instance,
// waits for the job, and prints the identical summary.
func probeViaServer(pa *probeArgs, stdout, stderr io.Writer) error {
	ctx := context.Background()
	cl := client.New(pa.server)
	info, err := cl.Probe(ctx, pa.request())
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "oraql: submitted %s to %s\n", info.ID, pa.server)
	if pa.verbose {
		// Stream progress lines while waiting; best-effort.
		evCtx, evCancel := context.WithCancel(ctx)
		defer evCancel()
		go func() { _ = cl.Events(evCtx, info.ID, stderr) }()
	}
	info, err = cl.Wait(ctx, info.ID, pa.poll)
	if err != nil {
		return err
	}
	if info.State != service.JobDone {
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
	var p report.ProbeJSON
	if err := json.Unmarshal(info.Result, &p); err != nil {
		return fmt.Errorf("decode job result: %w", err)
	}
	return emitProbe(&p, pa.jsonOut, stdout)
}

// emitProbe prints the probe outcome, as JSON or as the classic
// summary — identical for local and -server runs.
func emitProbe(p *report.ProbeJSON, jsonOut bool, stdout io.Writer) error {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(p)
	}
	fmt.Fprintf(stdout, "configuration:        %s\n", p.Name)
	fmt.Fprintf(stdout, "fully optimistic:     %v\n", p.FullyOptimistic)
	fmt.Fprintf(stdout, "optimistic queries:   %d unique, %d cached\n", p.ORAQL.UniqueOptimistic, p.ORAQL.CachedOptimistic)
	fmt.Fprintf(stdout, "pessimistic queries:  %d unique, %d cached\n", p.ORAQL.UniquePessimistic, p.ORAQL.CachedPessimistic)
	fmt.Fprintf(stdout, "no-alias responses:   %d original -> %d ORAQL\n", p.NoAliasOrig, p.NoAliasORAQL)
	fmt.Fprintf(stdout, "probing effort:       %d compiles, %d tests (+%d from exe cache)\n",
		p.Compiles, p.TestsRun, p.TestsCached)
	if p.TestsDisk > 0 {
		fmt.Fprintf(stdout, "persistent campaign:  %d test verdicts replayed from disk\n", p.TestsDisk)
	}
	if p.TestsSpeculated > 0 {
		fmt.Fprintf(stdout, "speculation:          %d tests prefetched, %d wasted\n",
			p.TestsSpeculated, p.TestsWasted)
	}
	fmt.Fprintf(stdout, "instructions:         %d original -> %d ORAQL\n", p.InstrsOrig, p.InstrsORAQL)
	if p.FinalSeq != "" {
		fmt.Fprintf(stdout, "final -opt-aa-seq:    %s\n", p.FinalSeq)
	}
	return nil
}

func cmdReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapUsage(err)
	}
	if fs.NArg() < 1 {
		return cliutil.Usagef("report needs a config id")
	}
	cfg := apps.ByID(fs.Arg(0))
	if cfg == nil {
		return fmt.Errorf("unknown configuration %q", fs.Arg(0))
	}
	e, err := report.Run(cfg, io.Discard)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, report.Fig3(e))
	return nil
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	var target string
	if len(args) > 0 && args[0][0] != '-' {
		target, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workers := fs.Int("j", 0, "default worker budget for probe/sweep/fuzz calls in the script (0 = package defaults)")
	cacheDir := fs.String("cache-dir", "", "persistent compile cache directory backing every scripted compilation and probe")
	cacheMaxMB := fs.Int("cache-max-mb", 0, "size cap for -cache-dir in MiB (0 = 512)")
	maxSteps := fs.Int64("max-steps", 0, "interpreter instruction budget (0 = default)")
	timeout := fs.Duration("timeout", 0, "campaign wall-clock limit (0 = none locally, server cap in -server mode)")
	server := fs.String("server", "", "run the campaign on this oraql-serve instance instead of locally")
	poll := fs.Duration("poll", 250*time.Millisecond, "job poll interval in -server mode")
	verbose := fs.Bool("v", false, "stream probe/fuzz progress to stderr")
	jsonOut := fs.Bool("json", false, "print the campaign's return value as JSON (and failures as the JSON envelope)")
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapUsage(err)
	}
	if target == "" {
		return cliutil.Usagef("run needs a config id or a .oraql script path")
	}
	if strings.HasSuffix(target, ".oraql") {
		ca := &campaignArgs{
			path: target, workers: *workers, cacheDir: *cacheDir, cacheMaxMB: *cacheMaxMB,
			maxSteps: *maxSteps, timeout: *timeout, server: *server, poll: *poll,
			verbose: *verbose, jsonOut: *jsonOut,
		}
		return cmdCampaign(ca, stdout, stderr)
	}
	cfg := apps.ByID(target)
	if cfg == nil {
		return fmt.Errorf("unknown configuration %q", target)
	}
	cr, err := pipeline.Compile(pipeline.Config{
		Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName, Frontend: cfg.Frontend,
	})
	if err != nil {
		return err
	}
	rr, err := irinterp.Run(cr.Program, cfg.Run)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rr.Stdout)
	fmt.Fprintf(stderr, "[%d instructions, %d cycles]\n", rr.Instrs, rr.Cycles)
	return nil
}

// campaignArgs is one `oraql run <script.oraql>` invocation.
type campaignArgs struct {
	path       string
	workers    int
	cacheDir   string
	cacheMaxMB int
	maxSteps   int64
	timeout    time.Duration
	server     string
	poll       time.Duration
	verbose    bool
	jsonOut    bool
}

// cmdCampaign executes a .oraql campaign script, locally or against
// an oraql-serve instance. print() output goes to stdout; the
// script's return value is printed as JSON when non-nil (always with
// -json, where nil prints as null).
func cmdCampaign(ca *campaignArgs, stdout, stderr io.Writer) error {
	src, err := os.ReadFile(ca.path)
	if err != nil {
		return err
	}
	if ca.server != "" {
		return campaignViaServer(ca, string(src), stdout, stderr)
	}
	cache, err := cliutil.OpenCache(ca.cacheDir, ca.cacheMaxMB)
	if err != nil {
		return err
	}
	opts := campaign.Options{
		Out:      stdout,
		Workers:  ca.workers,
		Cache:    cache,
		MaxSteps: ca.maxSteps,
		Timeout:  ca.timeout,
	}
	if ca.verbose {
		opts.Log = stderr
	}
	res, err := campaign.Run(string(src), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "campaign: %s done (%d steps)\n", ca.path, res.Steps)
	return emitCampaignValue(res.Value, ca.jsonOut, stdout)
}

// campaignViaServer posts the script body to POST /v1/campaign and
// waits for the job, streaming events with -v.
func campaignViaServer(ca *campaignArgs, src string, stdout, stderr io.Writer) error {
	ctx := context.Background()
	cl := client.New(ca.server)
	info, err := cl.Campaign(ctx, &service.CampaignRequest{
		Script:   src,
		Workers:  ca.workers,
		MaxSteps: ca.maxSteps,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "oraql: submitted %s (script sha256 %s) to %s\n", info.ID, info.ScriptSHA256, ca.server)
	if ca.verbose {
		evCtx, evCancel := context.WithCancel(ctx)
		defer evCancel()
		go func() { _ = cl.Events(evCtx, info.ID, stderr) }()
	}
	info, err = cl.Wait(ctx, info.ID, ca.poll)
	if err != nil {
		return err
	}
	if info.State != service.JobDone {
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
	var res service.CampaignResult
	if err := json.Unmarshal(info.Result, &res); err != nil {
		return fmt.Errorf("decode job result: %w", err)
	}
	fmt.Fprintf(stderr, "campaign: %s done (%d steps)\n", ca.path, res.Steps)
	var value any
	if err := json.Unmarshal(res.Value, &value); err != nil {
		return fmt.Errorf("decode campaign value: %w", err)
	}
	return emitCampaignValue(value, ca.jsonOut, stdout)
}

func emitCampaignValue(value any, jsonOut bool, stdout io.Writer) error {
	if value == nil && !jsonOut {
		return nil
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(value)
}
