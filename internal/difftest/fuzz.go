package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// FuzzOptions configures one fuzzing campaign.
type FuzzOptions struct {
	// Ctx, when non-nil, cancels the campaign: workers stop picking up
	// seeds and Fuzz returns the context error alongside the partial
	// result. Used by the serving layer to drain fuzz jobs.
	Ctx context.Context
	// N is the number of programs; seeds run [Seed, Seed+N).
	N    int
	Seed int64
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// Cache, when non-nil, is threaded into every oracle compilation
	// (see CheckOptions.Cache): re-fuzzing a seed range warm-starts
	// from artifacts persisted by earlier campaigns or other processes.
	Cache *diskcache.Store
	// Gen tunes the program generator; Grammar is the profile label the
	// generator options came from, recorded in warehouse findings so
	// corpus queries can ask which grammar features find bugs.
	Gen     progen.Options
	Grammar string
	// PrioritySeeds are generated first (deduplicated, before the
	// [Seed, Seed+N) fill) — corpus distillation feeds the historically
	// divergence-productive seeds here (-seed-from-warehouse). The
	// campaign still runs N programs total.
	PrioritySeeds []int64
	// Run configures the simulated machine.
	Run irinterp.Options
	// Variants is the compilation matrix (default Variants()).
	Variants []Variant
	// Triage runs the full diagnosis on every divergence.
	Triage bool
	// MaxDivergences stops the campaign early once this many
	// divergences were found (0 = 3).
	MaxDivergences int
	// CorpusDir, when set, receives the diverging source, the
	// minimized reproducer, and the JSON report of every divergence.
	CorpusDir string
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// Report is the JSON-serializable record of one divergence.
type Report struct {
	Seed      int64   `json:"seed"`
	Variant   string  `json:"variant"`
	File      string  `json:"file"`
	Source    string  `json:"source"`
	Ref       string  `json:"ref"`
	Got       string  `json:"got"`
	RunErr    string  `json:"run_err,omitempty"`
	Triage    *Triage `json:"triage,omitempty"`
	TriageErr string  `json:"triage_err,omitempty"`
}

// FuzzResult summarizes a campaign.
type FuzzResult struct {
	Programs    int       `json:"programs"`
	Variants    int       `json:"variants"`
	Divergences []*Report `json:"divergences"`
	// Errors records harness failures (generated program failed to
	// compile or the reference run crashed) — any entry is a bug.
	Errors []string `json:"errors,omitempty"`
}

// Fuzz runs the campaign: N generated programs, each checked under the
// variant matrix, with divergences optionally triaged and archived.
// Worker scheduling does not affect the outcome: results are collected
// per seed and reported in seed order.
func Fuzz(opts FuzzOptions) (*FuzzResult, error) {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	if opts.N <= 0 {
		opts.N = 100
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.MaxDivergences <= 0 {
		opts.MaxDivergences = 3
	}
	variants := opts.Variants
	if len(variants) == 0 {
		variants = Variants()
	}

	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "[fuzz] "+format+"\n", args...)
		}
	}

	res := &FuzzResult{Variants: len(variants)}
	var mu sync.Mutex
	var found atomic.Int64
	seeds := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				if found.Load() >= int64(opts.MaxDivergences) || opts.Ctx.Err() != nil {
					continue // drain: stop doing work, keep the channel moving
				}
				p := progen.Generate(seed, opts.Gen)
				div, err := Check(p, CheckOptions{Run: opts.Run, Variants: variants,
					Cache: opts.Cache})
				mu.Lock()
				res.Programs++
				mu.Unlock()
				if err != nil {
					mu.Lock()
					res.Errors = append(res.Errors, err.Error())
					mu.Unlock()
					continue
				}
				if div == nil {
					continue
				}
				found.Add(1)
				logf("%s", div)
				rep := &Report{
					Seed: seed, Variant: div.Variant.Name, File: p.FileName,
					Source: p.Source, Ref: div.Ref, Got: div.Got, RunErr: div.RunErr,
				}
				if opts.Triage {
					tr, terr := TriageDivergence(div, opts.Run)
					if terr != nil {
						rep.TriageErr = terr.Error()
						logf("seed %d: triage failed: %v", seed, terr)
					} else {
						rep.Triage = tr
						logf("seed %d: triaged to pass %q (position %d), %d guilty queries, %d-line reproducer, artifact %s",
							seed, tr.Pass, tr.PassIndex, len(tr.Queries), tr.ReproLines, tr.ArtifactID[:12])
					}
				}
				mu.Lock()
				res.Divergences = append(res.Divergences, rep)
				mu.Unlock()
			}
		}()
	}
	for _, s := range seedOrder(opts) {
		seeds <- s
	}
	close(seeds)
	wg.Wait()

	sort.Slice(res.Divergences, func(i, j int) bool { return res.Divergences[i].Seed < res.Divergences[j].Seed })
	sort.Strings(res.Errors)

	if err := opts.Ctx.Err(); err != nil {
		return res, err
	}

	// Every divergence goes into the forensics warehouse when the
	// campaign runs with a shared cache. Ingestion happens after the
	// workers join, over the seed-sorted list, so record order (and the
	// "N filed" log line) is deterministic; content addressing makes a
	// replayed campaign a no-op here.
	if w := warehouse.Open(opts.Cache); w != nil && len(res.Divergences) > 0 {
		filed := 0
		for _, r := range res.Divergences {
			n, err := ingestDivergence(w, opts.Grammar, r)
			if err != nil {
				logf("warehouse ingest failed for seed %d: %v", r.Seed, err)
				continue
			}
			filed += n
		}
		logf("filed %d warehouse records for %d divergences", filed, len(res.Divergences))
	}

	if opts.CorpusDir != "" && len(res.Divergences) > 0 {
		if err := writeCorpus(opts.CorpusDir, res.Divergences); err != nil {
			return res, err
		}
		logf("archived %d divergences under %s", len(res.Divergences), opts.CorpusDir)
	}
	logf("done: %d programs x %d variants, %d divergences, %d harness errors",
		res.Programs, res.Variants, len(res.Divergences), len(res.Errors))
	return res, nil
}

// seedOrder lays out the campaign's N seeds: the priority seeds first
// (deduplicated, campaign-order preserved), then the [Seed, Seed+N)
// range fills the remainder, skipping seeds already prioritized. The
// order feeds a deterministic work list; divergence results still
// report in seed order.
func seedOrder(opts FuzzOptions) []int64 {
	order := make([]int64, 0, opts.N)
	seen := make(map[int64]bool, opts.N)
	for _, s := range opts.PrioritySeeds {
		if len(order) >= opts.N {
			break
		}
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	for i := int64(0); len(order) < opts.N; i++ {
		s := opts.Seed + i
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	return order
}

// IngestReports files a batch of divergence reports in the warehouse
// — the offline path behind `oraql warehouse ingest`, replaying
// archived fuzz-report JSON into a (possibly different) corpus.
// Returns how many records the batch introduced; replays are no-ops.
func IngestReports(w *warehouse.Store, grammar string, reports []*Report) (int, error) {
	filed := 0
	for _, r := range reports {
		n, err := ingestDivergence(w, grammar, r)
		filed += n
		if err != nil {
			return filed, err
		}
	}
	return filed, nil
}

// ingestDivergence files one divergence in the warehouse: a fuzz
// record always, plus a triage record carrying the artifact when the
// diagnosis ran. Returns how many records this call introduced.
func ingestDivergence(w *warehouse.Store, grammar string, r *Report) (int, error) {
	filed := 0
	fz := &warehouse.Record{
		Kind: warehouse.KindFuzz, App: r.Variant, Grammar: grammar,
		Seed: r.Seed, Divergent: true,
	}
	if _, added, err := w.Ingest(fz); err != nil {
		return filed, err
	} else if added {
		filed++
	}
	t := r.Triage
	if t == nil {
		return filed, nil
	}
	tr := &warehouse.Record{
		Kind: warehouse.KindTriage, App: r.Variant, Grammar: grammar,
		Seed: r.Seed, Divergent: true, FinalSeq: t.GuiltySeq,
		Artifact: &warehouse.TriageArtifact{
			ID: t.ArtifactID, Reproducer: t.Reproducer, ReproLines: t.ReproLines,
			Pass: t.Pass, PassIndex: t.PassIndex, GuiltySeq: t.GuiltySeq,
			Variant: t.Variant,
		},
	}
	// The guilty queries are exactly the ones whose optimistic answer
	// breaks the program — record them pessimistic so shape statistics
	// count them as convictions.
	for _, q := range t.Queries {
		tr.Queries = append(tr.Queries, warehouse.QueryVerdict{
			Index: q.Index, Pass: q.Pass, Func: q.Func, A: q.A, B: q.B,
		})
	}
	if _, added, err := w.Ingest(tr); err != nil {
		return filed, err
	} else if added {
		filed++
	}
	return filed, nil
}

// writeCorpus archives each divergence: the full source, the minimized
// reproducer when triaged, and the JSON report.
func writeCorpus(dir string, reports []*Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range reports {
		base := fmt.Sprintf("seed%d-%s", r.Seed, r.Variant)
		if err := os.WriteFile(filepath.Join(dir, base+".mc"), []byte(r.Source), 0o644); err != nil {
			return err
		}
		if r.Triage != nil {
			if err := os.WriteFile(filepath.Join(dir, base+"-repro.mc"), []byte(r.Triage.Reproducer), 0o644); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
