package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRuns reads the untraced result records under dir, grouped by
// workload, each group in measurement order.
func loadRuns(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Provenance.Time < rs[j].Provenance.Time })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result records in %s", dir)
	}
	return out, nil
}

// compare judges a head set of runs against a base set, one row per
// (end-to-end metric, workload). Runs pair up in measurement order, so
// alternate base and head runs when making them.
//
//   - improved: head wins at least 9 of 10 pairs and the medians differ
//     by more than the base runs' interquartile range;
//   - worse: the head median is worse than the base median by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the base runs spread (IQR / median) wider than the
//     bound, unless every head run beats every base run;
//   - unchanged: otherwise.
//
// With -claim METRIC@WORKLOAD that pair may only read improved; any
// other verdict is reported as "not met".
func compare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseDir := fs.String("base", "", "directory of the parent commit's result records (-out)")
	headDir := fs.String("head", "", "directory of the change's result records (-out)")
	claim := fs.String("claim", "", "METRIC@WORKLOAD the change claims to improve")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseDir == "" || *headDir == "" {
		return fmt.Errorf("compare needs -base and -head")
	}
	bf, err := loadBenchmark(*benchPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(*baseDir)
	if err != nil {
		return err
	}
	head, err := loadRuns(*headDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tworse by\tbound\thead wins\tverdict")
	for _, wl := range workloads {
		bs, hs := base[wl.name], head[wl.name]
		if len(bs) == 0 || len(hs) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			bv, hv := values(bs, m.Name), values(hs, m.Name)
			lower := m.Better == "lower"
			v := judge(bv, hv, lower, m.Bound)
			if *claim != "" && *claim == m.Name+"@"+wl.name && v.verdict != "improved" {
				v.verdict = "not met (" + v.verdict + ")"
			}
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.name, m.Name, median(bv), bq1, bq3, median(hv), hq1, hq3,
				100*v.worse, 100*m.Bound, v.wins, v.pairs, v.verdict)
		}
	}
	return tw.Flush()
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type judgement struct {
	worse       float64 // share of the base median by which head is worse
	wins, pairs int
	verdict     string
}

func judge(bv, hv []float64, lower bool, bound float64) judgement {
	better := func(h, b float64) bool {
		if lower {
			return h < b
		}
		return h > b
	}
	bm, hm := median(bv), median(hv)
	j := judgement{pairs: min(len(bv), len(hv))}
	if lower {
		j.worse = ratio(hm-bm, bm)
	} else {
		j.worse = ratio(bm-hm, bm)
	}
	for i := 0; i < j.pairs; i++ {
		if better(hv[i], bv[i]) {
			j.wins++
		}
	}
	q1, q3 := quartiles(bv)
	iqr := q3 - q1
	allBetter := true
	for _, h := range hv {
		for _, b := range bv {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case j.wins*10 >= 9*j.pairs && better(hm, bm) && math.Abs(hm-bm) > iqr:
		j.verdict = "improved"
	case ratio(iqr, math.Abs(bm)) > bound && !allBetter:
		j.verdict = "unresolved"
	case j.worse > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}
