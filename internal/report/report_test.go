package report

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden and the EXPERIMENTS.md blocks from the current evaluation")

// experimentsDoc is the document whose measured tables are the goldens.
const experimentsDoc = "../../EXPERIMENTS.md"

// paperTables renders every deterministic paper table of the
// evaluation, keyed by golden name. None of them prints a wall time.
func paperTables(exps []*Experiment) map[string]string {
	var fig3, fig7 strings.Builder
	for _, e := range exps {
		if e.Probe.Final.Compile.ORAQLStats().UniquePessimistic > 0 {
			fig3.WriteString(Fig3(e) + "\n")
		}
		if e.Probe.Final.Compile.Device != nil {
			fig7.WriteString(Fig7(e) + "\n")
		}
	}
	return map[string]string{
		"fig3":    fig3.String(),
		"fig4":    Fig4(exps, true) + "\n",
		"fig6":    Fig6(exps) + "\n",
		"fig7":    fig7.String(),
		"runtime": Runtime(exps) + "\n",
		"effort":  ProbingEffort(exps) + "\n",
	}
}

// goldenBlock matches one generated block of EXPERIMENTS.md: the
// golden's name, then its content verbatim in a text fence.
var goldenBlock = regexp.MustCompile("(?s)<!-- golden:([a-z0-9]+) -->\n```text\n(.*?)```\n<!-- /golden -->")

// TestFullEvaluation runs the entire evaluation through RunAll, the
// path `oraql tables` takes (sequential, so the effort counters do not
// depend on speculation timing), and compares
// every paper table byte for byte with testdata/golden/<table>.golden
// and with the same table embedded in EXPERIMENTS.md. -update rewrites
// both from the current evaluation; -v shows the tables, including the
// pass timing table, which is wall time and pinned nowhere.
func TestFullEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in short mode")
	}
	exps, err := RunAll(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	SortByFig4Order(exps)
	tables := paperTables(exps)
	t.Log("\n" + Fig5() + "\n" + PassTiming(exps))

	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	newDoc := goldenBlock.ReplaceAllFunc(doc, func(b []byte) []byte {
		name := string(goldenBlock.FindSubmatch(b)[1])
		seen[name] = true
		got, ok := tables[name]
		if !ok {
			t.Errorf("EXPERIMENTS.md embeds unknown golden %q", name)
			return b
		}
		return []byte("<!-- golden:" + name + " -->\n```text\n" + got + "```\n<!-- /golden -->")
	})
	for name, got := range tables {
		t.Log("\n" + got)
		path := filepath.Join("testdata", "golden", name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
		}
		if !seen[name] {
			t.Errorf("EXPERIMENTS.md embeds no golden:%s block", name)
		}
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, newDoc, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !bytes.Equal(doc, newDoc) {
		t.Error("EXPERIMENTS.md's generated blocks differ from the evaluation (run with -update)")
	}
}
