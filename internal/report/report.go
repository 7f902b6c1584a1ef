// Package report runs the evaluation and renders the paper's tables
// and figures from live measurements: Fig. 4 (alias-query statistics),
// Fig. 5 (substrate versions), Fig. 6 (pass-statistic deltas), Fig. 7
// (per-kernel register/stack changes), the Fig. 3 pessimistic-query
// dump, and the runtime comparisons quoted in the text of Section V.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/passes"
)

// Experiment bundles one configuration's probing outcome.
type Experiment struct {
	Config *apps.Config
	Probe  *driver.Result
}

// Run probes the given configuration.
func Run(cfg *apps.Config, log io.Writer) (*Experiment, error) {
	spec := cfg.Spec()
	spec.Log = log
	res, err := driver.Probe(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.ID, err)
	}
	return &Experiment{Config: cfg, Probe: res}, nil
}

// RunAll probes every registered configuration (or the named subset).
func RunAll(ids []string, log io.Writer) ([]*Experiment, error) {
	cfgs := apps.All()
	if len(ids) > 0 {
		cfgs = nil
		for _, id := range ids {
			c := apps.ByID(id)
			if c == nil {
				return nil, fmt.Errorf("unknown configuration %q", id)
			}
			cfgs = append(cfgs, c)
		}
	}
	var out []*Experiment
	for _, c := range cfgs {
		e, err := Run(c, log)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// table is a minimal column formatter.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}

func pct(oraql, orig int64) string {
	if orig == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(oraql-orig)/float64(orig))
}

// Fig4 renders the alias-query statistics table (measured), with the
// paper's published counts alongside for EXPERIMENTS.md.
func Fig4(exps []*Experiment, withPaper bool) string {
	t := &table{header: []string{
		"Benchmark", "Programming Model", "Source Files",
		"OptU", "OptC", "PessU", "PessC", "NA-Orig", "NA-ORAQL", "Delta",
	}}
	if withPaper {
		t.header = append(t.header, "paper:PessU", "paper:Delta")
	}
	for _, e := range exps {
		s := e.Probe.Final.Compile.ORAQLStats()
		orig := e.Probe.Baseline.Compile.NoAliasTotal()
		final := e.Probe.Final.Compile.NoAliasTotal()
		row := []string{
			e.Config.Benchmark, e.Config.ModelLabel, e.Config.SourceFiles,
			fmt.Sprint(s.UniqueOptimistic), fmt.Sprint(s.CachedOptimistic),
			fmt.Sprint(s.UniquePessimistic), fmt.Sprint(s.CachedPessimistic),
			fmt.Sprint(orig), fmt.Sprint(final), pct(final, orig),
		}
		if withPaper {
			p := e.Config.Paper
			row = append(row, fmt.Sprint(p.PessUnique),
				pct(int64(p.NoAliasORAQL), int64(p.NoAliasOrig)))
		}
		t.add(row...)
	}
	return "Fig. 4 — Alias query statistics (measured on the go-oraql substrate)\n" + t.String()
}

// Fig5 renders the substrate-version table, the analogue of the
// paper's software-version listing.
func Fig5() string {
	t := &table{header: []string{"Component", "Version"}}
	t.add("go-oraql substrate", Version)
	t.add("IR / pass pipeline", "O3 v"+Version)
	t.add("alias analyses", "basic, scoped-noalias, tbaa, argattr, globals (+cfl-anders, cfl-steens opt-in)")
	t.add("simulated CPU", codegen.X86.Name)
	t.add("simulated GPU", codegen.GPUSim.Name)
	return "Fig. 5 — Software versions (substrate components)\n" + t.String()
}

// Version is the substrate version stamped into Fig. 5.
const Version = "1.0.0"

// fig6Selections lists the (pass, statistic) pairs the paper's Fig. 6
// quotes; Fig6 prints every selected counter that moved, per config.
var fig6Selections = []struct{ Pass, Stat string }{
	{"asm printer", "# machine instructions generated"},
	{"Early CSE", "# instructions eliminated"},
	{"Global Value Numbering", "# loads deleted"},
	{"Loop Invariant Code Motion", "# loads hoisted or sunk"},
	{"Loop Deletion", "# deleted loops"},
	{"Dead Store Elimination", "# stores deleted"},
	{"register allocation", "# register spills inserted"},
	{"SLP Vectorizer", "# vector instructions generated"},
	{"Loop Vectorizer", "# vectorized loops"},
	{"Loop Vectorizer", "# vector instructions generated"},
}

func statOf(reg *passes.StatsRegistry, pass, stat string) int64 {
	return reg.Get(pass, stat)
}

// Fig6 renders the interesting pass-statistic deltas between the
// original and ORAQL compilations.
func Fig6(exps []*Experiment) string {
	t := &table{header: []string{"Benchmark", "Pass", "Property", "Original", "ORAQL", "Delta"}}
	for _, e := range exps {
		base := e.Probe.Baseline.Compile
		fin := e.Probe.Final.Compile
		for _, sel := range fig6Selections {
			var o, n int64
			o += statOf(base.Host.Pass, sel.Pass, sel.Stat)
			n += statOf(fin.Host.Pass, sel.Pass, sel.Stat)
			if base.Device != nil {
				o += statOf(base.Device.Pass, sel.Pass, sel.Stat)
				n += statOf(fin.Device.Pass, sel.Pass, sel.Stat)
			}
			if o == n || (o == 0 && n == 0) {
				continue
			}
			t.add(e.Config.ID, sel.Pass, sel.Stat, fmt.Sprint(o), fmt.Sprint(n), pct(n, o))
		}
	}
	return "Fig. 6 — LLVM-style statistics, original vs ORAQL compilation\n" + t.String()
}

// Fig7 renders the per-kernel register / stack-frame changes of the
// device compilation (TestSNAP Kokkos-CUDA in the paper).
func Fig7(e *Experiment) string {
	t := &table{header: []string{"Id", "Kernel", "#regs orig", "#stack orig", "#regs ORAQL", "#stack ORAQL", "d-regs", "d-stack"}}
	base := e.Probe.Baseline.Compile.Device
	fin := e.Probe.Final.Compile.Device
	if base == nil || fin == nil {
		return "Fig. 7 — (no device compilation in " + e.Config.ID + ")\n"
	}
	id := 0
	for _, bf := range base.Code.Funcs {
		if !bf.IsKernel {
			continue
		}
		var ff *codegen.FuncStats
		for i := range fin.Code.Funcs {
			if fin.Code.Funcs[i].Name == bf.Name {
				ff = &fin.Code.Funcs[i]
				break
			}
		}
		if ff == nil {
			continue
		}
		id++
		t.add(fmt.Sprint(id), bf.Name,
			fmt.Sprint(bf.RegsUsed), fmt.Sprint(bf.StackBytes),
			fmt.Sprint(ff.RegsUsed), fmt.Sprint(ff.StackBytes),
			pct(int64(ff.RegsUsed), int64(bf.RegsUsed)),
			pct(ff.StackBytes, bf.StackBytes))
	}
	return fmt.Sprintf("Fig. 7 — Per-kernel static properties (%s device compilation)\n%s", e.Config.ID, t.String())
}

// OccupancyRegBudget is the register budget of the occupancy model: a
// kernel using more registers than this loses occupancy 1/regs-wise,
// the mechanism behind the paper's GridMini kernel slowdown.
const OccupancyRegBudget = 24.0

// KernelTime converts device cycles + register usage into the modeled
// kernel time (arbitrary units).
func KernelTime(cycles int64, regs int) float64 {
	occ := 1.0
	if float64(regs) > OccupancyRegBudget {
		occ = OccupancyRegBudget / float64(regs)
	}
	return float64(cycles) / occ
}

// Runtime renders the dynamic-execution comparison: executed
// instructions, cycle cost, and (for offload configs) modeled kernel
// time, original vs ORAQL — the numbers quoted in the running text of
// Section V.
func Runtime(exps []*Experiment) string {
	t := &table{header: []string{"Benchmark", "Metric", "Original", "ORAQL", "Delta"}}
	for _, e := range exps {
		b := e.Probe.Baseline.Run
		f := e.Probe.Final.Run
		t.add(e.Config.ID, "# executed instructions", fmt.Sprint(b.Instrs), fmt.Sprint(f.Instrs), pct(f.Instrs, b.Instrs))
		t.add(e.Config.ID, "cycles (cost model)", fmt.Sprint(b.Cycles), fmt.Sprint(f.Cycles), pct(f.Cycles, b.Cycles))
		if b.DeviceInstrs > 0 {
			t.add(e.Config.ID, "device instructions", fmt.Sprint(b.DeviceInstrs), fmt.Sprint(f.DeviceInstrs), pct(f.DeviceInstrs, b.DeviceInstrs))
			bt := modeledKernelTime(e, true)
			ft := modeledKernelTime(e, false)
			t.add(e.Config.ID, "kernel time (occupancy model)", fmt.Sprintf("%.0f", bt), fmt.Sprintf("%.0f", ft),
				fmt.Sprintf("%+.1f%%", 100*(ft-bt)/bt))
		}
	}
	return "Runtime comparison — original vs (almost) perfect alias information\n" + t.String()
}

// modeledKernelTime sums KernelTime over launched kernels.
func modeledKernelTime(e *Experiment, baseline bool) float64 {
	out := e.Probe.Final
	if baseline {
		out = e.Probe.Baseline
	}
	code := out.Compile.Device
	if code == nil {
		return 0
	}
	regs := map[string]int{}
	for _, f := range code.Code.Funcs {
		regs[f.Name] = f.RegsUsed
	}
	total := 0.0
	names := out.Run.KernelNames()
	for _, k := range names {
		total += KernelTime(out.Run.KernelCycles[k], regs[k])
	}
	return total
}

// ProbingEffort renders the driver-side counters (compiles, tests run,
// tests skipped via the executable hash cache, speculative tests of the
// parallel driver).
func ProbingEffort(exps []*Experiment) string {
	t := &table{header: []string{"Benchmark", "Compiles", "Tests run", "Tests cached",
		"Speculated", "Wasted", "Final seq len", "Pess in seq"}}
	for _, e := range exps {
		t.add(e.Config.ID,
			fmt.Sprint(e.Probe.Compiles), fmt.Sprint(e.Probe.TestsRun), fmt.Sprint(e.Probe.TestsCached),
			fmt.Sprint(e.Probe.TestsSpeculated), fmt.Sprint(e.Probe.TestsWasted),
			fmt.Sprint(len(e.Probe.FinalSeq)), fmt.Sprint(e.Probe.FinalSeq.CountPessimistic()))
	}
	return "Probing effort (paper Section IV-B mechanisms)\n" + t.String()
}

// PassTiming renders the -time-passes view of each configuration's
// final compilation: total pipeline wall time, the most expensive
// pass, and the analysis manager's cache economy.
func PassTiming(exps []*Experiment) string {
	t := &table{header: []string{"Benchmark", "Pipeline ms", "Hottest pass", "Pass runs",
		"Analysis hits", "Analysis misses", "Hit rate"}}
	for _, e := range exps {
		tm := e.Probe.Final.Compile.Timing()
		entries := tm.Entries()
		hottest := "-"
		var runs int64
		if len(entries) > 0 {
			hottest = entries[0].Pass
		}
		for _, pt := range entries {
			runs += pt.Runs
		}
		var hits, misses int64
		for _, as := range e.Probe.Final.Compile.AnalysisStats() {
			hits += as.Hits
			misses += as.Misses
		}
		rate := "n/a"
		if hits+misses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
		t.add(e.Config.ID, fmt.Sprintf("%.2f", float64(tm.Total().Microseconds())/1000),
			hottest, fmt.Sprint(runs), fmt.Sprint(hits), fmt.Sprint(misses), rate)
	}
	return "Pass timing (-time-passes analogue, final compilation per config)\n" + t.String()
}

// Fig3 renders the pessimistic-query dump of a configuration in the
// style of the paper's Fig. 3.
func Fig3(e *Experiment) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 — Pessimistically answered queries (%s)\n", e.Config.ID)
	n := 0
	for _, rec := range e.Probe.Final.Compile.Records() {
		if rec.Optimistic {
			continue
		}
		n++
		fmt.Fprintf(&sb, "Executing Pass '%s' on Function '%s'...\n", rec.Pass, rec.Func)
		fmt.Fprintf(&sb, "[ORAQL] Pessimistic query [Cached 0]\n")
		fmt.Fprintf(&sb, "[ORAQL] - %s [%s]\n", describePtr(rec.A.Ptr), rec.A.Size)
		fmt.Fprintf(&sb, "[ORAQL] - %s [%s]\n", describePtr(rec.B.Ptr), rec.B.Size)
		fmt.Fprintf(&sb, "[ORAQL] Scope: %s\n", rec.Func)
		la, lb := srcLocOf(rec.A.Ptr, rec.A.Instr), srcLocOf(rec.B.Ptr, rec.B.Instr)
		if la != "" || lb != "" {
			fmt.Fprintf(&sb, "[ORAQL] LocA: %s\n[ORAQL] LocB: %s\n", la, lb)
		}
		fmt.Fprintf(&sb, "[ORAQL] (served from cache %d more times)\n", rec.CacheHits)
	}
	if n == 0 {
		sb.WriteString("(configuration verified fully optimistic: no pessimistic queries)\n")
	}
	return sb.String()
}

// describePtr renders the pointer's defining instruction (Fig. 3 shows
// the full IR of both sides).
func describePtr(v ir.Value) string {
	if in, ok := v.(*ir.Instr); ok {
		return in.String()
	}
	return fmt.Sprintf("%s %s", v.Type(), v.Ident())
}

// srcLocOf extracts the best available source location of a query side.
func srcLocOf(ptr ir.Value, access *ir.Instr) string {
	if in, ok := ptr.(*ir.Instr); ok && in.Loc.IsValid() {
		return in.Loc.String()
	}
	if access != nil && access.Loc.IsValid() {
		return access.Loc.String()
	}
	return ""
}

// SortByFig4Order orders experiments by the registry (Fig. 4) order.
func SortByFig4Order(exps []*Experiment) {
	order := map[string]int{}
	for i, c := range apps.All() {
		order[c.ID] = i
	}
	sort.SliceStable(exps, func(i, j int) bool {
		return order[exps[i].Config.ID] < order[exps[j].Config.ID]
	})
}
