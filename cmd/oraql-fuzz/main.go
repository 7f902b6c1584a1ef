// Command oraql-fuzz is the differential-fuzzing front end: it
// generates UB-free minic programs, compiles each one at O0 and under
// every AA configuration of the O1/O3 matrix, and compares the
// interpreter outputs. Any divergence is a miscompile; with -triage
// (default on) it is automatically bisected to the first guilty pass,
// delta-debugged to a minimal reproducer, and — in -inject mode — to
// the minimal set of guilty optimistic alias responses.
//
// Usage:
//
//	oraql-fuzz [-n N] [-seed S] [-j N] [-stmts N] [-corpus dir] [-json file]
//	           [-cache-dir DIR] [-cache-max-mb N] [-seed-from-warehouse]
//	oraql-fuzz -inject [-n N] ...   # fault-injection self-test
//
// With -cache-dir, every oracle compilation is backed by the shared
// persistent store: re-running a seed range (or sharing the directory
// with oraql/oraql-opt/oraql-serve) starts warm. The oracle's verdict
// is unaffected: a compilation served from the store, an ORAQL-active
// variant's included, is byte-identical to a cold one. Divergences
// (and their triage artifacts) are additionally filed in the forensics
// warehouse inside the same directory; -seed-from-warehouse reorders
// generation so seeds that diverged in past campaigns run first.
//
// In the default (clean) mode the exit status is 0 only when the whole
// campaign is divergence-free: any hit means the compiler at head
// miscompiles a generated program. In -inject mode the logic flips —
// the deliberately unsound fully-optimistic responder MUST produce a
// divergence and the triage MUST pin it, otherwise the harness itself
// has rotted and the run fails.
//
// Exit codes: 0 success, 1 operational failure (including divergences
// in clean mode), 2 usage error. Any -json usage additionally switches
// failures to the shared JSON error envelope on stderr.
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
	"github.com/oraql/go-oraql/internal/warehouse"

	// Registered for -list: app configs (and, transitively, the probing
	// strategies); the fuzzing path itself does not consume them.
	_ "github.com/oraql/go-oraql/internal/apps"
)

func main() {
	argv := os.Args[1:]
	err := run(argv, os.Stdout, os.Stderr)
	os.Exit(cliutil.Report(os.Stderr, "oraql-fuzz", cliutil.WantsJSON(argv), err))
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 100, "number of programs to generate")
	seed := fs.Int64("seed", 1, "first generator seed; programs use [seed, seed+n)")
	workers := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	stmts := fs.Int("stmts", 0, "statements per generated program (0 = generator default)")
	grammar := fs.String("grammar", "default", "registered grammar profile (see -list)")
	list := fs.Bool("list", false, "list registered grammar profiles, strategies, AA chains, and app configs, then exit")
	corpus := fs.String("corpus", "", "directory receiving diverging sources, reproducers, and JSON reports")
	cacheDir := fs.String("cache-dir", "", "persistent compile cache directory shared across campaigns and processes (empty = no persistence)")
	cacheMaxMB := fs.Int("cache-max-mb", 0, "size cap for -cache-dir in MiB (0 = 512)")
	jsonOut := fs.String("json", "", "write the campaign summary as JSON to this file (- = stdout)")
	inject := fs.Bool("inject", false, "fault-injection mode: run the unsound fully-optimistic responder and demand a triaged divergence")
	triage := fs.Bool("triage", true, "triage divergences (reduce source, bisect pipeline and queries)")
	seedFromWH := fs.Bool("seed-from-warehouse", false, "order generation toward seeds that historically diverged (requires -cache-dir)")
	maxDiv := fs.Int("max-div", 0, "stop after this many divergences (0 = default)")
	verbose := fs.Bool("v", false, "log progress to stderr")
	if err := fs.Parse(argv); err != nil {
		return cliutil.WrapUsage(err)
	}
	if fs.NArg() > 0 {
		return cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *list {
		cliutil.PrintRegistries(stdout)
		return nil
	}
	gen, err := progen.GrammarByName(*grammar, *stmts)
	if err != nil {
		return cliutil.WrapUsage(err)
	}

	cache, err := cliutil.OpenCache(*cacheDir, *cacheMaxMB)
	if err != nil {
		return err
	}
	opts := difftest.FuzzOptions{
		N:              *n,
		Seed:           *seed,
		Workers:        *workers,
		Cache:          cache,
		Gen:            gen,
		Grammar:        *grammar,
		Triage:         *triage,
		MaxDivergences: *maxDiv,
		CorpusDir:      *corpus,
	}
	if *verbose {
		opts.Log = stderr
	}
	if *seedFromWH {
		w := warehouse.Open(cache)
		if w == nil {
			return cliutil.Usagef("-seed-from-warehouse requires -cache-dir")
		}
		opts.PrioritySeeds = w.Load().DivergentSeeds(*grammar)
		if *verbose {
			fmt.Fprintf(stderr, "oraql-fuzz: %d historically divergent seeds prioritized from the warehouse\n", len(opts.PrioritySeeds))
		}
	}
	if *inject {
		opts.Variants = []difftest.Variant{difftest.InjectVariant()}
	}

	res, err := difftest.Fuzz(opts)
	if err != nil {
		return err
	}
	if err := emit(res, *jsonOut, stdout); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "oraql-fuzz: %d programs x %d variants: %d divergences, %d harness errors\n",
		res.Programs, res.Variants, len(res.Divergences), len(res.Errors))
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "harness error:", e)
	}
	if len(res.Errors) > 0 {
		return fmt.Errorf("%d harness errors", len(res.Errors))
	}
	if *inject {
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

// emit writes the JSON campaign summary when requested.
func emit(res *difftest.FuzzResult, dest string, stdout io.Writer) error {
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
