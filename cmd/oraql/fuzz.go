package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// cmdFuzz is the differential-fuzzing front end: it generates UB-free
// minic programs, compiles each one at O0 and under every AA
// configuration of the O1/O3 matrix, and compares the interpreter
// outputs. Any divergence is a miscompile; with -triage (default on)
// it is bisected to the first guilty pass, delta-debugged to a minimal
// reproducer, and — in -inject mode — to the minimal set of guilty
// optimistic alias responses.
//
// With -cache-dir, every oracle compilation is backed by the shared
// persistent store, so re-running a seed range starts warm without
// changing a verdict, and divergences are filed in the forensics
// warehouse; -seed-from-warehouse runs the seeds that diverged in past
// campaigns first.
//
// In the default (clean) mode the command succeeds only when the whole
// campaign is divergence-free: any hit means the compiler miscompiles
// a generated program. In -inject mode the logic flips — the
// deliberately unsound fully-optimistic responder must produce a
// divergence and the triage must pin it, otherwise the harness itself
// has rotted and the run fails.
func cmdFuzz(args []string, stdout, stderr io.Writer) error {
	var req request.FuzzRequest
	var store cliutil.Store
	fs := flag.NewFlagSet("oraql fuzz", flag.ContinueOnError)
	fs.IntVar(&req.N, "n", 100, "number of programs to generate")
	fs.Int64Var(&req.Seed, "seed", 1, "first generator seed; programs use [seed, seed+n)")
	fs.IntVar(&req.Workers, "j", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.IntVar(&req.Stmts, "stmts", 0, "statements per generated program (0 = generator default)")
	fs.StringVar(&req.Grammar, "grammar", progen.DefaultGrammar, "registered grammar profile (oraql list -grammars)")
	corpus := fs.String("corpus", "", "directory receiving diverging sources, reproducers, and JSON reports")
	store.Flags(fs)
	jsonOut := fs.String("json", "", "write the campaign summary as JSON to this file (- = stdout)")
	fs.BoolVar(&req.Inject, "inject", false, "fault-injection mode: run the unsound fully-optimistic responder and demand a triaged divergence")
	triage := fs.Bool("triage", true, "triage divergences (reduce source, bisect pipeline and queries)")
	seedFromWH := fs.Bool("seed-from-warehouse", false, "order generation toward seeds that historically diverged (requires -cache-dir)")
	fs.IntVar(&req.MaxDivergences, "max-div", 0, "stop after this many divergences (0 = default)")
	verbose := fs.Bool("v", false, "log progress to stderr")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 0); err != nil {
		return err
	}
	req.NoTriage = !*triage
	opts, err := req.Options()
	if err != nil {
		return cliutil.WrapUsage(err)
	}
	// The wire reads a zero seed as unset and starts at 1; on the
	// command line -seed 0 starts at seed 0.
	opts.Seed = req.Seed
	opts.CorpusDir = *corpus
	if opts.Cache, err = store.Open(); err != nil {
		return err
	}
	if *verbose {
		opts.Log = stderr
	}
	if *seedFromWH {
		w := warehouse.Open(opts.Cache)
		if w == nil {
			return cliutil.Usagef("-seed-from-warehouse requires -cache-dir")
		}
		opts.PrioritySeeds = w.Load().DivergentSeeds(opts.Grammar)
		if *verbose {
			fmt.Fprintf(stderr, "oraql fuzz: %d historically divergent seeds prioritized from the warehouse\n", len(opts.PrioritySeeds))
		}
	}

	res, err := difftest.Fuzz(opts)
	if err != nil {
		return err
	}
	if err := emitFuzz(res, *jsonOut, stdout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "oraql fuzz: %d programs x %d variants: %d divergences, %d harness errors\n",
		res.Programs, res.Variants, len(res.Divergences), len(res.Errors))
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "harness error:", e)
	}
	if len(res.Errors) > 0 {
		return fmt.Errorf("%d harness errors", len(res.Errors))
	}
	if req.Inject {
		return checkInject(res, stdout)
	}
	for _, d := range res.Divergences {
		fmt.Fprintf(stdout, "MISCOMPILE seed=%d variant=%s ref=%q got=%q\n", d.Seed, d.Variant, d.Ref, d.Got)
		if d.Triage != nil {
			fmt.Fprintf(stdout, "  first guilty pass: %q (position %d), %d-line reproducer\n",
				d.Triage.Pass, d.Triage.PassIndex, d.Triage.ReproLines)
		}
	}
	if len(res.Divergences) > 0 {
		return fmt.Errorf("%d divergences — the compiler miscompiles generated programs", len(res.Divergences))
	}
	return nil
}

// checkInject validates the fault-injection self-test: the unsound
// responder must diverge and the triage must fully explain it.
func checkInject(res *difftest.FuzzResult, stdout io.Writer) error {
	if len(res.Divergences) == 0 {
		return fmt.Errorf("inject mode: the fully-optimistic responder produced no divergence in %d programs; the oracle cannot detect miscompiles", res.Programs)
	}
	for _, d := range res.Divergences {
		if d.Triage == nil {
			return fmt.Errorf("inject mode: seed %d diverged but triage failed: %s", d.Seed, d.TriageErr)
		}
		if d.Triage.Pass == "" || len(d.Triage.Queries) == 0 {
			return fmt.Errorf("inject mode: seed %d triage incomplete: pass=%q queries=%d",
				d.Seed, d.Triage.Pass, len(d.Triage.Queries))
		}
		fmt.Fprintf(stdout, "inject seed=%d: pass %q (position %d), %d guilty queries, %d-line reproducer\n",
			d.Seed, d.Triage.Pass, d.Triage.PassIndex, len(d.Triage.Queries), d.Triage.ReproLines)
		for _, q := range d.Triage.Queries {
			fmt.Fprintf(stdout, "  query #%d in %s/%s: %s vs %s\n", q.Index, q.Pass, q.Func, q.A, q.B)
		}
	}
	fmt.Fprintln(stdout, "inject mode: all divergences detected and triaged — oracle healthy")
	return nil
}

// emitFuzz writes the JSON campaign summary when requested.
func emitFuzz(res *difftest.FuzzResult, dest string, stdout io.Writer) error {
	if dest == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if dest == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(dest, data, 0o644)
}
