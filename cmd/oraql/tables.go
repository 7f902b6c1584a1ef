package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/warehouse"
)

var tables = map[string]bool{"all": true, "fig3": true, "fig4": true, "fig5": true,
	"fig6": true, "fig7": true, "runtime": true, "effort": true, "timing": true,
	"warehouse": true}

// cmdTables regenerates the paper's tables and figures from live runs
// of the evaluation, all of them or one (-table), over every config or
// a subset (-configs); -table warehouse renders the forensics corpus's
// recurrences instead.
func cmdTables(args []string, stdout, stderr io.Writer) error {
	var store cliutil.Store
	fs := flag.NewFlagSet("oraql tables", flag.ContinueOnError)
	table := fs.String("table", "all", "which table to print (fig3|fig4|fig5|fig6|fig7|runtime|effort|timing|warehouse|all)")
	configs := fs.String("configs", "", "comma-separated config ids (default: all)")
	store.Flags(fs)
	verbose := fs.Bool("v", false, "verbose driver log")
	fs.Bool("json", false, "emit failures as the shared JSON error envelope")
	if err := cliutil.Parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cliutil.Usagef("unexpected arguments: %v", fs.Args())
	}
	if !tables[*table] {
		return cliutil.Usagef("unknown table %q (fig3|fig4|fig5|fig6|fig7|runtime|effort|timing|warehouse|all)", *table)
	}

	// The warehouse table reads the persisted corpus instead of running
	// experiments, so it never joins "all".
	if *table == "warehouse" {
		cache, err := store.Open()
		if err != nil {
			return err
		}
		w := warehouse.Open(cache)
		if w == nil {
			return cliutil.Usagef("-table warehouse requires -cache-dir")
		}
		fmt.Fprintln(stdout, report.WarehouseTable(w.Load()))
		return nil
	}

	var ids []string
	if *configs != "" {
		ids = strings.Split(*configs, ",")
	}
	var logW io.Writer = io.Discard
	if *verbose {
		logW = stderr
	}

	if *table == "fig5" {
		fmt.Fprintln(stdout, report.Fig5())
		return nil
	}

	exps, err := report.RunAll(ids, logW)
	if err != nil {
		return err
	}
	report.SortByFig4Order(exps)

	show := func(name string) bool { return *table == "all" || *table == name }
	if show("fig4") {
		fmt.Fprintln(stdout, report.Fig4(exps, true))
	}
	if show("fig5") {
		fmt.Fprintln(stdout, report.Fig5())
	}
	if show("fig6") {
		fmt.Fprintln(stdout, report.Fig6(exps))
	}
	if show("fig7") {
		for _, e := range exps {
			if e.Probe.Final.Compile.Device != nil {
				fmt.Fprintln(stdout, report.Fig7(e))
			}
		}
	}
	if show("fig3") {
		for _, e := range exps {
			s := e.Probe.Final.Compile.ORAQLStats()
			if s.UniquePessimistic > 0 {
				fmt.Fprintln(stdout, report.Fig3(e))
			}
		}
	}
	if show("runtime") {
		fmt.Fprintln(stdout, report.Runtime(exps))
	}
	if show("effort") {
		fmt.Fprintln(stdout, report.ProbingEffort(exps))
	}
	if show("timing") {
		fmt.Fprintln(stdout, report.PassTiming(exps))
	}
	return nil
}
