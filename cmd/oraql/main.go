// Command oraql is the ORAQL CLI. Its probing driver runs the full
// workflow (baseline, fully-optimistic attempt, bisection) on a
// benchmark configuration or a standalone minic source file and
// reports the locally maximal optimistic sequence — either locally or
// against an oraql-serve instance (-server). Beside it sit the
// single-compilation tool (opt), the differential fuzzer (fuzz), the
// paper-table regenerator (tables), compile sweeps, campaign scripts
// and the forensics warehouse.
//
// Usage:
//
//	oraql list [-all]
//	oraql probe <config-id> [-strategy chunked|freq|linear] [-j N] [-v] [-json]
//	oraql probe -file prog.mc [-model seq|openmp|tasks|mpi|offload] [-fortran] [-views]
//	oraql probe <config-id> -server http://localhost:8347   # same probe, remotely
//	oraql report <config-id>        # Fig. 3-style pessimistic dump
//	oraql run <config-id>           # baseline compile+run only
//	oraql run <script.oraql>        # scripted campaign (see internal/campaign)
//	oraql opt prog.mc [-opt-aa-seq "1 0 1"|@file] [-stats] [-run] ...
//	oraql fuzz [-n N] [-seed S] [-inject] ...
//	oraql tables [-table fig4] [-configs a,b]
//
// Every subcommand prints its flags with -h. Exit codes: 0 success,
// 1 operational failure, 2 usage error (-h included). With -json,
// failures are printed as the shared JSON error envelope.
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
)

func main() {
	argv := os.Args[1:]
	err := run(argv, os.Stdout, os.Stderr)
	os.Exit(cliutil.Report(os.Stderr, "oraql", cliutil.WantsJSON(argv), err))
}

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"list":      cmdList,
	"probe":     cmdProbe,
	"report":    cmdReport,
	"run":       cmdRun,
	"sweep":     cmdSweep,
	"opt":       cmdOpt,
	"fuzz":      cmdFuzz,
	"tables":    cmdTables,
	"warehouse": cmdWarehouse,
}

func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) < 1 {
		usage(stderr)
		return cliutil.Usagef("missing subcommand")
	}
	cmd, ok := commands[argv[0]]
	if !ok {
		usage(stderr)
		return cliutil.Usagef("unknown subcommand %q", argv[0])
	}
	return cmd(argv[1:], stdout, stderr)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage (every subcommand lists its flags with -h):
  oraql list [-all|-strategies|-chains|-grammars]
  oraql probe <config-id> [-strategy chunked|freq|linear] [-j N] [-no-exe-cache] [-v] [-json]
  oraql probe -file prog.mc [-model seq|openmp|tasks|mpi|offload] [-fortran] [-views] [-target sub]
  oraql probe ... -server http://host:8347 [-poll 250ms]
  oraql report <config-id>
  oraql run <config-id>
  oraql run <script.oraql> [-j N] [-cache-dir DIR] [-max-steps N] [-timeout D] [-v] [-json]
  oraql run <script.oraql> -server http://host:8347   # sandboxed POST /v1/campaign
  oraql sweep [config-id ...] [-cache-dir DIR] [-json]
  oraql opt prog.mc|prog.ir [-opt-aa] [-opt-aa-seq "1 0 ..."|@file] [-stats] [-print-ir] [-run] [-O1]
  oraql fuzz [-n N] [-seed S] [-j N] [-inject] [-corpus DIR] [-json FILE] [-cache-dir DIR]
  oraql tables [-table fig3|fig4|fig5|fig6|fig7|runtime|effort|timing|warehouse] [-configs a,b]
  oraql warehouse stats|query|export|ingest -cache-dir DIR [...]
  oraql warehouse query -cache-dir DIR [-by pass|shape|func|grammar] [-kind K] [-app A]
  oraql warehouse export <config-id>|-file prog.mc [-cache-dir DIR]
  oraql warehouse ingest -cache-dir DIR [-grammar G] report.json...`)
}

func cmdList(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql list", flag.ContinueOnError)
	all := fs.Bool("all", false, "print every registry: strategies, AA analyses/chains, app configs, grammar profiles")
	strategies := fs.Bool("strategies", false, "print registered probing strategies")
	chains := fs.Bool("chains", false, "print registered AA analyses and chain orders")
	grammars := fs.Bool("grammars", false, "print registered fuzz-grammar profiles")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 0); err != nil {
		return err
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

// probeArgs is the parsed `oraql probe` invocation. Its request is the
// wire form, so the same invocation runs locally or against a server.
type probeArgs struct {
	req     request.ProbeRequest
	store   cliutil.Store
	verbose bool
	jsonOut bool
	server  string
	poll    time.Duration
}

func parseProbeArgs(args []string, stderr io.Writer) (*probeArgs, error) {
	pa := &probeArgs{}
	prog := &pa.req.Program
	fs := flag.NewFlagSet("oraql probe", flag.ContinueOnError)
	file := fs.String("file", "", "standalone minic source file instead of a config id")
	cliutil.ProgramFlags(fs, prog)
	fs.IntVar(&prog.Ranks, "ranks", 1, "simulated MPI ranks for -file")
	fs.StringVar(&pa.req.Target, "target", "", "-opt-aa-target substring (restrict ORAQL to a target)")
	fs.StringVar(&pa.req.Strategy, "strategy", "chunked", "bisection strategy by registered name (`oraql list -strategies`)")
	fs.IntVar(&pa.req.Workers, "j", 0, "probing workers: above 1, one speculative test beside the consumed one (0 = NumCPU, 1 = sequential)")
	fs.BoolVar(&pa.req.DisableExeCache, "no-exe-cache", false, "disable the executable-hash test cache")
	pa.store.DirFlag(fs)
	fs.BoolVar(&pa.verbose, "v", false, "verbose driver log")
	fs.BoolVar(&pa.jsonOut, "json", false, "print the probe result as JSON (and failures as the JSON envelope)")
	fs.StringVar(&pa.server, "server", "", "probe against this oraql-serve address instead of locally")
	fs.DurationVar(&pa.poll, "poll", 250*time.Millisecond, "job poll interval in -server mode")

	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return nil, err
	}
	if err := cliutil.MaxArgs(fs, 1); err != nil {
		return nil, err
	}
	id := fs.Arg(0)
	if _, err := driver.StrategyByName(pa.req.Strategy); err != nil {
		return nil, cliutil.WrapUsage(err)
	}
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return nil, err
		}
		prog.Source, prog.SourceFile = string(src), *file
	case id == "":
		return nil, cliutil.Usagef("need a config id or -file")
	default:
		pa.req.Program = request.ProgramSpec{ConfigID: id}
	}
	return pa, nil
}

func cmdProbe(args []string, stdout, stderr io.Writer) error {
	pa, err := parseProbeArgs(args, stderr)
	if err != nil {
		return err
	}
	if pa.server != "" {
		return probeViaServer(pa, stdout, stderr)
	}
	spec, err := pa.req.Spec(driver.StrategyByName)
	if errors.Is(err, request.ErrUnknownModel) {
		return cliutil.WrapUsage(err)
	}
	if err != nil {
		return err
	}
	if spec.Cache, err = pa.store.Open(); err != nil {
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
	info, err := cl.Probe(ctx, &pa.req)
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

func cmdReport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql report", flag.ContinueOnError)
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 1); err != nil {
		return err
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

// campaignArgs is one `oraql run` invocation: path is a .oraql script
// or, for a plain compile and run, a config id.
type campaignArgs struct {
	path     string
	workers  int
	store    cliutil.Store
	maxSteps int64
	timeout  time.Duration
	server   string
	poll     time.Duration
	verbose  bool
	jsonOut  bool
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	ca := &campaignArgs{}
	fs := flag.NewFlagSet("oraql run", flag.ContinueOnError)
	fs.IntVar(&ca.workers, "j", 0, "default worker budget for probe/sweep/fuzz calls in the script (0 = package defaults)")
	ca.store.Flags(fs)
	fs.Int64Var(&ca.maxSteps, "max-steps", 0, "interpreter instruction budget (0 = default)")
	fs.DurationVar(&ca.timeout, "timeout", 0, "campaign wall-clock limit (0 = none locally, server cap in -server mode)")
	fs.StringVar(&ca.server, "server", "", "run the campaign on this oraql-serve instance instead of locally")
	fs.DurationVar(&ca.poll, "poll", 250*time.Millisecond, "job poll interval in -server mode")
	fs.BoolVar(&ca.verbose, "v", false, "stream probe/fuzz progress to stderr")
	fs.BoolVar(&ca.jsonOut, "json", false, "print the campaign's return value as JSON (and failures as the JSON envelope)")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 1); err != nil {
		return err
	}
	ca.path = fs.Arg(0)
	if ca.path == "" {
		return cliutil.Usagef("run needs a config id or a .oraql script path")
	}
	if strings.HasSuffix(ca.path, ".oraql") {
		return cmdCampaign(ca, stdout, stderr)
	}
	cfg, err := (&request.CompileRequest{Program: request.ProgramSpec{ConfigID: ca.path}}).Config()
	if err != nil {
		return err
	}
	cr, err := pipeline.Compile(cfg)
	if err != nil {
		return err
	}
	rr, err := irinterp.Run(cr.Program, apps.ByID(ca.path).Run)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rr.Stdout)
	fmt.Fprintf(stderr, "[%d instructions, %d cycles]\n", rr.Instrs, rr.Cycles)
	return nil
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
	cache, err := ca.store.Open()
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
