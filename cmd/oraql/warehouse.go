package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// cmdWarehouse dispatches the forensics-warehouse subcommands. Every
// one operates on the warehouse layered over -cache-dir, the same
// store probes and fuzz campaigns ingest into automatically.
func cmdWarehouse(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return cliutil.Usagef("warehouse needs a subcommand: ingest | query | export | stats")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "ingest":
		return cmdWarehouseIngest(rest, stdout, stderr)
	case "query":
		return cmdWarehouseQuery(rest, stdout, stderr)
	case "export":
		return cmdWarehouseExport(rest, stdout, stderr)
	case "stats":
		return cmdWarehouseStats(rest, stdout, stderr)
	default:
		return cliutil.Usagef("unknown warehouse subcommand %q (ingest | query | export | stats)", sub)
	}
}

// openWarehouse opens the warehouse in the store; no -cache-dir is a
// usage error because every warehouse operation needs a corpus.
func openWarehouse(store cliutil.Store) (*warehouse.Store, error) {
	if store.Dir == "" {
		return nil, cliutil.Usagef("warehouse needs -cache-dir")
	}
	cache, err := store.Open()
	if err != nil {
		return nil, err
	}
	return warehouse.Open(cache), nil
}

// cmdWarehouseIngest replays archived fuzz-report JSON (a difftest
// FuzzResult or a single Report, as written by -corpus-dir) into the
// corpus. Re-ingesting a file is a no-op by content addressing.
func cmdWarehouseIngest(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql warehouse ingest", flag.ContinueOnError)
	var store cliutil.Store
	store.Flags(fs)
	grammar := fs.String("grammar", "", "grammar profile label to record on the findings (empty: "+progen.DefaultGrammar+")")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return cliutil.Usagef("warehouse ingest needs report JSON files")
	}
	// Label the findings as a fuzz campaign does (FuzzRequest.Options).
	if *grammar == "" {
		*grammar = progen.DefaultGrammar
	}
	if _, err := progen.GrammarByName(*grammar, 0); err != nil {
		return cliutil.WrapUsage(err)
	}
	w, err := openWarehouse(store)
	if err != nil {
		return err
	}
	filed, reports := 0, 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		batch, err := decodeReports(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		n, err := difftest.IngestReports(w, *grammar, batch)
		filed += n
		reports += len(batch)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(stdout, "ingested %d reports: %d new records, %d total in corpus\n",
		reports, filed, w.Load().Len())
	return nil
}

// decodeReports accepts either a FuzzResult envelope or a bare Report.
func decodeReports(data []byte) ([]*difftest.Report, error) {
	var res difftest.FuzzResult
	if err := json.Unmarshal(data, &res); err == nil && len(res.Divergences) > 0 {
		return res.Divergences, nil
	}
	var rep difftest.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("neither a fuzz result nor a report: %w", err)
	}
	if rep.Seed == 0 && rep.Source == "" {
		return nil, fmt.Errorf("no divergences found in input")
	}
	return []*difftest.Report{&rep}, nil
}

// cmdWarehouseQuery answers the cross-campaign recurrence question:
// which pass/shape/function/grammar recurs, over which apps. Output is
// deterministic JSON — byte-identical across runs and processes.
func cmdWarehouseQuery(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql warehouse query", flag.ContinueOnError)
	var store cliutil.Store
	store.Flags(fs)
	by := fs.String("by", "pass", "grouping dimension: pass | shape | func | grammar")
	kind := fs.String("kind", "", "restrict to one record kind: probe | fuzz | triage")
	app := fs.String("app", "", "restrict to one app config")
	grammar := fs.String("grammar", "", "restrict to one grammar profile")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope (output is always JSON)")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 0); err != nil {
		return err
	}
	w, err := openWarehouse(store)
	if err != nil {
		return err
	}
	rows := w.Load().Query(warehouse.QueryOptions{
		Kind: *kind, App: *app, Grammar: *grammar, By: *by,
	})
	data, err := warehouse.MarshalRecurrences(rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return nil
}

// cmdWarehouseExport compiles a configuration (or a standalone file)
// and prints its code property graph, annotated with the corpus's
// per-shape verdict history. The export is byte-identical across runs
// and processes.
func cmdWarehouseExport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql warehouse export", flag.ContinueOnError)
	var store cliutil.Store
	store.Flags(fs)
	file := fs.String("file", "", "standalone minic source file instead of a config id")
	aliasPairs := fs.Int("alias-pairs", 0, "per-function access cap for ALIAS edges (0 = default, -1 = none)")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope (output is always JSON)")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 1); err != nil {
		return err
	}
	if *file == "" && fs.NArg() == 0 {
		return cliutil.Usagef("warehouse export needs a config id or -file")
	}
	req := request.CompileRequest{Program: request.ProgramSpec{ConfigID: fs.Arg(0)}}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		req.Program = request.ProgramSpec{Source: string(src), SourceFile: *file}
	}
	cfg, err := req.Config()
	if err != nil {
		return err
	}
	cr, err := pipeline.Compile(cfg)
	if err != nil {
		return err
	}
	opts := warehouse.CPGOptions{
		Records:       cr.Records(),
		MaxAliasPairs: *aliasPairs,
	}
	cache, err := store.Open()
	if err != nil {
		return err
	}
	if w := warehouse.Open(cache); w != nil {
		opts.History = w.Load().ShapePriors()
	}
	g := warehouse.ExportCPG(cr.Host.Module, opts)
	data, err := warehouse.MarshalGraph(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	nodes, edges := g.CountByKind()
	var nTotal, eTotal int
	for _, n := range nodes {
		nTotal += n
	}
	for _, n := range edges {
		eTotal += n
	}
	fmt.Fprintf(stderr, "cpg: %s: %d nodes, %d edges (%v)\n", cfg.Name, nTotal, eTotal, g.EdgeKinds())
	return nil
}

// cmdWarehouseStats prints the corpus overview.
func cmdWarehouseStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oraql warehouse stats", flag.ContinueOnError)
	var store cliutil.Store
	store.Flags(fs)
	jsonOut := fs.Bool("json", false, "print stats as JSON")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if err := cliutil.MaxArgs(fs, 0); err != nil {
		return err
	}
	w, err := openWarehouse(store)
	if err != nil {
		return err
	}
	st := w.Load().Stats()
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Fprintf(stdout, "records:      %d (%d probe, %d fuzz, %d triage)\n", st.Records, st.Probes, st.Fuzz, st.Triage)
	fmt.Fprintf(stdout, "divergent:    %d\n", st.Divergent)
	fmt.Fprintf(stdout, "apps:         %d\n", st.Apps)
	fmt.Fprintf(stdout, "guilty passes:%d distinct\n", st.Passes)
	fmt.Fprintf(stdout, "query shapes: %d distinct\n", st.Shapes)
	fmt.Fprintf(stdout, "functions:    %d distinct content hashes\n", st.Funcs)
	fmt.Fprintf(stdout, "verdicts:     %d optimistic, %d pessimistic\n", st.Opt, st.Pess)
	return nil
}
