package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/request"
)

// cmdOpt is the single-compilation tool (the opt/clang analogue): it
// compiles one minic source file, or textual IR (.ir), through the -O3
// pipeline with an optional ORAQL response sequence and prints IR,
// statistics, and ORAQL dump output.
func cmdOpt(args []string, stdout, stderr io.Writer) error {
	var req request.CompileRequest
	o := &req.Options
	var dump oraql.DumpFlags
	var store cliutil.Store
	fs := flag.NewFlagSet("oraql opt", flag.ContinueOnError)
	seqArg := fs.String("opt-aa-seq", "", `ORAQL response sequence ("1 0 ...", or @file); empty enables the pass fully optimistic`)
	fs.BoolVar(&o.ORAQL, "opt-aa", false, "enable the ORAQL pass (implied by -opt-aa-seq/-opt-aa-dump-*)")
	fs.StringVar(&o.Target, "opt-aa-target", "", "restrict ORAQL to modules whose target contains this substring")
	fs.BoolVar(&dump.First, "opt-aa-dump-first", false, "dump first (non-cached) queries")
	fs.BoolVar(&dump.Cached, "opt-aa-dump-cached", false, "dump cached queries")
	fs.BoolVar(&dump.Optimistic, "opt-aa-dump-optimistic", false, "dump optimistically answered queries")
	fs.BoolVar(&dump.Pessimistic, "opt-aa-dump-pessimistic", false, "dump pessimistically answered queries")
	cliutil.ProgramFlags(fs, &req.Program)
	o1 := fs.Bool("O1", false, "use the reduced O1 pipeline")
	o0 := fs.Bool("O0", false, "frontend output only (no optimization)")
	fs.BoolVar(&o.FullAAChain, "full-aa", false, "enable the CFL points-to analyses in the chain (same as -aa-chain full)")
	fs.StringVar(&o.AAChain, "aa-chain", "", `alias-analysis chain: a registered name ("default", "full") or a comma-separated analysis list (oraql list -chains)`)
	stats := fs.Bool("stats", false, "print pass statistics (-mllvm -stats analogue)")
	timePasses := fs.Bool("time-passes", false, "print per-pass wall time, run counts, and analysis cache counters")
	fs.BoolVar(&o.DisableAnalysisCache, "disable-analysis-cache", false, "recompute every analysis on every pass run (force-invalidate mode)")
	store.Flags(fs)
	printIR := fs.Bool("print-ir", false, "print optimized IR")
	debugPass := fs.Bool("debug-pass", false, "print pass executions to stderr (-debug-pass=Executions analogue)")
	runProg := fs.Bool("run", false, "run the compiled program on the simulated machine")
	ranks := fs.Int("ranks", 1, "simulated MPI ranks for -run")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")

	var file string
	if len(args) > 0 && args[0][0] != '-' {
		file, args = args[0], args[1:]
	}
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if file == "" {
		return cliutil.Usagef("missing input file")
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	seq, err := parseSeqArg(*seqArg)
	if err != nil {
		return cliutil.WrapUsage(err)
	}
	req.Program.Source, req.Program.SourceFile = string(src), file
	o.ORAQL = o.ORAQL || *seqArg != "" || dump.Any()
	o.Seq = seq.String()
	switch {
	case *o0:
		o.OptLevel = -1
	case *o1:
		o.OptLevel = 1
	}
	cfg, err := req.Config()
	if errors.Is(err, request.ErrUnknownModel) {
		return cliutil.WrapUsage(err)
	}
	if err != nil {
		return err
	}
	// The inputs only this command line has: textual IR, dumps and
	// pass tracing, which print to stderr, and the store.
	if strings.HasSuffix(file, ".ir") {
		if cfg.Module, err = irtext.Parse(string(src)); err != nil {
			return err
		}
	}
	if cfg.ORAQL != nil {
		cfg.ORAQL.Dump, cfg.ORAQL.Out = dump, stderr
	}
	if *debugPass {
		cfg.DebugPass = stderr
	}
	cache, err := store.Open()
	if err != nil {
		return err
	}
	cfg.DiskCache = cache

	cr, err := pipeline.Compile(cfg)
	if err != nil {
		return err
	}

	if *printIR {
		fmt.Fprint(stdout, cr.Host.Module.String())
		if cr.Device != nil {
			fmt.Fprint(stdout, cr.Device.Module.String())
		}
	}
	if *stats {
		fmt.Fprintln(stdout, "=== host statistics ===")
		cr.Host.Pass.Print(stdout)
		if cr.Device != nil {
			fmt.Fprintln(stdout, "=== device statistics ===")
			cr.Device.Pass.Print(stdout)
		}
		s := cr.ORAQLStats()
		if cfg.ORAQL != nil {
			fmt.Fprintf(stdout, "%8d oraql - Number of unique optimistic responses\n", s.UniqueOptimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of cached optimistic responses\n", s.CachedOptimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of unique pessimistic responses\n", s.UniquePessimistic)
			fmt.Fprintf(stdout, "%8d oraql - Number of cached pessimistic responses\n", s.CachedPessimistic)
		}
	}
	if *timePasses {
		cr.Timing().Print(stdout, cr.AnalysisStats())
	}
	fmt.Fprintf(stderr, "exe hash: %s\n", cr.ExeHash())
	if cache != nil {
		// Function hits counts the functions a translation-unit
		// artifact served: all of them on a warm run, with or without
		// ORAQL, and none on a cold run or when a dump (-debug-pass,
		// -opt-aa-dump-*) bypasses the cache.
		c := cache.Counters()
		fmt.Fprintf(stderr, "disk cache: %d function hits, %d store hits / %d misses, %d puts\n",
			cr.DiskHits(), c.Hits, c.Misses, c.Puts)
	}
	if *runProg {
		rr, err := irinterp.Run(cr.Program, irinterp.Options{NumRanks: *ranks})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rr.Stdout)
		fmt.Fprintf(stderr, "[%d instructions, %d cycles]\n", rr.Instrs, rr.Cycles)
	}
	return nil
}

// parseSeqArg parses an -opt-aa-seq argument. The form @<filename>
// loads the sequence from a file, mirroring LLVM's response-file
// support for sequences longer than the argument length limit; only
// this command line expands it.
func parseSeqArg(arg string) (oraql.Seq, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sequence file: %w", err)
		}
		arg = string(data)
	}
	return oraql.ParseSeq(arg)
}
