package irinterp_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current interpreter")

const goldenPath = "testdata/runs.golden"

// goldenRun is one (program, options) pair of the golden matrix.
type goldenRun struct {
	name string
	prog *irinterp.Program
	opts irinterp.Options
}

// goldenRuns builds the matrix: every app configuration compiled plain,
// fully optimistic and with its first query pessimistic, each run with
// its own options, a tight step limit and a memory limit below the
// stack base; then progen programs at O0 and fully optimistic.
func goldenRuns(t testing.TB) []goldenRun {
	t.Helper()
	var runs []goldenRun
	for _, cfg := range apps.All() {
		variants := []struct {
			name string
			opts *oraql.Options
		}{
			{"plain", nil},
			{"optimistic", &oraql.Options{Target: cfg.ORAQLTarget}},
			{"pessimistic1", &oraql.Options{Target: cfg.ORAQLTarget, Seq: oraql.Seq{false}}},
		}
		for _, v := range variants {
			cr, err := pipeline.Compile(pipeline.Config{
				Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName,
				Frontend: cfg.Frontend, ORAQL: v.opts,
			})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", cfg.ID, v.name, err)
			}
			steps, mem := cfg.Run, cfg.Run
			steps.StepLimit = 20000
			mem.MemLimit = 9 << 20
			base := cfg.ID + "/" + v.name
			runs = append(runs,
				goldenRun{base + "/run", cr.Program, cfg.Run},
				goldenRun{base + "/steps20000", cr.Program, steps},
				goldenRun{base + "/mem9m", cr.Program, mem},
			)
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		p := progen.Generate(seed, progen.Options{})
		host, dev, err := minic.Compile(p.FileName, p.Source, minic.Options{})
		if err != nil {
			t.Fatalf("progen %d: frontend: %v", seed, err)
		}
		cr, err := pipeline.Compile(pipeline.Config{
			Name: "golden", Source: p.Source, SourceFile: p.FileName, ORAQL: &oraql.Options{},
		})
		if err != nil {
			t.Fatalf("progen %d: compile: %v", seed, err)
		}
		name := fmt.Sprintf("progen-%d", seed)
		runs = append(runs,
			goldenRun{name + "/O0", &irinterp.Program{Host: host, Device: dev}, irinterp.Options{}},
			goldenRun{name + "/optimistic", cr.Program, irinterp.Options{}},
		)
	}
	return runs
}

// goldenLine renders one run: the trap text, or a stdout digest plus
// every counter of the Result, kernels in name order.
func goldenLine(r goldenRun) string {
	res, err := irinterp.Run(r.prog, r.opts)
	if err != nil {
		return fmt.Sprintf("%s trap %q", r.name, err.Error())
	}
	names := map[string]bool{}
	for k := range res.KernelCycles {
		names[k] = true
	}
	for k := range res.KernelLaunches {
		names[k] = true
	}
	var kernels []string
	for k := range names {
		cycles := "-"
		if c, ok := res.KernelCycles[k]; ok {
			cycles = fmt.Sprint(c)
		}
		kernels = append(kernels, fmt.Sprintf("%s:%s/%d", k, cycles, res.KernelLaunches[k]))
	}
	sort.Strings(kernels)
	return fmt.Sprintf("%s ok stdout=%x instrs=%d cycles=%d dev_instrs=%d dev_cycles=%d kernels=[%s]",
		r.name, sha256.Sum256([]byte(res.Stdout)), res.Instrs, res.Cycles,
		res.DeviceInstrs, res.DeviceCycles, strings.Join(kernels, " "))
}

// TestGoldenRuns pins the interpreter's observable behaviour — stdout,
// dynamic counters, per-kernel accounting and trap texts — over the
// app and progen matrix. Regenerate with -update only for an intended
// change of semantics or cost model.
func TestGoldenRuns(t *testing.T) {
	checkGolden(t, goldenPath, goldenRuns(t))
}

// checkGolden renders every run and compares the lines with the golden
// file at path, or rewrites the file under -update.
func checkGolden(t *testing.T, path string, runs []goldenRun) {
	t.Helper()
	var lines []string
	for _, r := range runs {
		lines = append(lines, goldenLine(r))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%s has %d runs, matrix has %d", path, len(want), len(lines))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			if bad++; bad <= 10 {
				t.Errorf("run %d differs:\n want: %s\n got:  %s", i, want[i], lines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d differing runs in all", bad)
	}
}
