package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/cliutil"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
)

// sweepEntry is one configuration's compile outcome.
type sweepEntry struct {
	ID        string  `json:"id"`
	ExeHash   string  `json:"exe_hash"`
	CompileMS float64 `json:"compile_ms"`
	DiskHits  int     `json:"disk_hits"`
	// Cached reports a server-side cache hit (-server mode only).
	Cached bool `json:"cached,omitempty"`
}

// sweepResult is the `oraql sweep` JSON document: one process's
// compile pass over the benchmark matrix, with the persistent-store
// counters when a cache dir was used. The cross-process benchmark
// (scripts/bench_diskcache.sh) diffs two of these — one cold, one warm
// from a separate process — on exe hashes and total time.
type sweepResult struct {
	Configs  []sweepEntry        `json:"configs"`
	TotalMS  float64             `json:"total_ms"`
	CacheDir string              `json:"cache_dir,omitempty"`
	Disk     *diskcache.Counters `json:"disk,omitempty"`
	// Server/Unique describe a -server sweep: the instance the batch
	// went to and how many distinct content keys it deduplicated to.
	Server string `json:"server,omitempty"`
	Unique int    `json:"unique,omitempty"`
}

// cmdSweep compiles every benchmark configuration (or the ones named
// as arguments) in-process and reports per-config exe hashes and
// timings.
func cmdSweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cacheDir := fs.String("cache-dir", "", "persistent compile cache directory (empty = cold every time)")
	cacheMaxMB := fs.Int("cache-max-mb", 0, "size cap for -cache-dir in MiB (0 = 512)")
	server := fs.String("server", "", "sweep against this oraql-serve instance in one POST /v1/compile/batch instead of compiling locally")
	jsonOut := fs.Bool("json", false, "print the sweep result as JSON")
	if err := fs.Parse(args); err != nil {
		return cliutil.WrapUsage(err)
	}
	if *server != "" && *cacheDir != "" {
		return cliutil.Usagef("-server and -cache-dir are mutually exclusive: the server owns its own cache")
	}

	configs := apps.All()
	if fs.NArg() > 0 {
		configs = configs[:0:0]
		for _, id := range fs.Args() {
			cfg := apps.ByID(id)
			if cfg == nil {
				return fmt.Errorf("unknown configuration %q (try `oraql list`)", id)
			}
			configs = append(configs, cfg)
		}
	}

	if *server != "" {
		res, err := sweepServer(*server, configs)
		if err != nil {
			return err
		}
		return printSweep(res, *jsonOut, stdout, stderr)
	}

	cache, err := cliutil.OpenCache(*cacheDir, *cacheMaxMB)
	if err != nil {
		return err
	}

	res := sweepResult{CacheDir: *cacheDir}
	start := time.Now()
	for _, app := range configs {
		cfg := pipeline.Config{
			Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
			Frontend: app.Frontend, DiskCache: cache,
		}
		t0 := time.Now()
		cr, err := pipeline.Compile(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.ID, err)
		}
		res.Configs = append(res.Configs, sweepEntry{
			ID:        app.ID,
			ExeHash:   cr.ExeHash(),
			CompileMS: float64(time.Since(t0).Microseconds()) / 1000,
			DiskHits:  cr.DiskHits(),
		})
	}
	res.TotalMS = float64(time.Since(start).Microseconds()) / 1000
	if cache != nil {
		c := cache.Counters()
		res.Disk = &c
	}
	return printSweep(&res, *jsonOut, stdout, stderr)
}

// sweepServer resolves the whole matrix in one POST /v1/compile/batch:
// the server deduplicates by content hash and serves repeats from its
// fleet-wide cache, so a warm sweep costs zero compilations.
func sweepServer(server string, configs []*apps.Config) (*sweepResult, error) {
	items := make([]service.CompileRequest, len(configs))
	for i, app := range configs {
		items[i] = service.CompileRequest{Program: service.ProgramSpec{ConfigID: app.ID}}
	}
	cl := client.New(server)
	start := time.Now()
	batch, err := cl.CompileBatch(context.Background(), &service.BatchCompileRequest{Items: items})
	if err != nil {
		return nil, fmt.Errorf("batch sweep against %s: %w", server, err)
	}
	if len(batch.Items) != len(configs) {
		return nil, fmt.Errorf("server answered %d items for %d configs", len(batch.Items), len(configs))
	}
	res := &sweepResult{Server: cl.Base, Unique: batch.Unique}
	for i, item := range batch.Items {
		if item.Response == nil {
			return nil, fmt.Errorf("%s: server: %s (HTTP %d)", configs[i].ID, item.Error, item.Code)
		}
		var cj report.CompileJSON
		if err := json.Unmarshal(item.Response.Result, &cj); err != nil {
			return nil, fmt.Errorf("%s: decode server result: %w", configs[i].ID, err)
		}
		res.Configs = append(res.Configs, sweepEntry{
			ID:        configs[i].ID,
			ExeHash:   cj.ExeHash,
			CompileMS: item.Response.CompileMS,
			Cached:    item.Response.Cached,
		})
	}
	res.TotalMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

func printSweep(res *sweepResult, jsonOut bool, stdout, stderr io.Writer) error {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(stdout, "%-22s %-18s %10s %10s\n", "ID", "EXE HASH", "MS", "DISK HITS")
	for _, e := range res.Configs {
		hash := e.ExeHash
		if len(hash) > 16 {
			hash = hash[:16]
		}
		hits := fmt.Sprintf("%d", e.DiskHits)
		if e.Cached {
			hits = "cached"
		}
		fmt.Fprintf(stdout, "%-22s %-18s %10.2f %10s\n", e.ID, hash, e.CompileMS, hits)
	}
	fmt.Fprintf(stdout, "total: %.2fms over %d configs\n", res.TotalMS, len(res.Configs))
	if res.Server != "" {
		fmt.Fprintf(stderr, "server %s: %d items deduplicated to %d unique keys\n",
			res.Server, len(res.Configs), res.Unique)
	}
	if res.Disk != nil {
		fmt.Fprintf(stderr, "disk cache: %d hits / %d misses, %d puts, %d evictions\n",
			res.Disk.Hits, res.Disk.Misses, res.Disk.Puts, res.Disk.Evictions)
	}
	return nil
}
