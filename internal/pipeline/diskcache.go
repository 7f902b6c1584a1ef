package pipeline

import (
	"encoding/json"
	"fmt"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/passes"
)

// Translation-unit artifacts: the pipeline's only disk-cache layer,
// keyed by the input — the source text (pre-frontend) or, for a
// pre-built module, its printed text, in a key domain of its own — and
// every output-affecting configuration knob. A hit skips the frontend,
// AA chain, pass pipeline and codegen entirely — the optimized module
// is re-materialized from its persisted text and the deterministic
// outputs (exe hash and machine statistics, -stats counters, timing
// rows) are replayed, byte-identical to a cold compilation.
//
// The key covers the whole module on purpose: the AA chain holds
// module-level analyses (Globals, Andersen, Steensgaard) that read
// every function and global, so an edit anywhere can change the
// optimized code of an untouched function. An edited program is
// therefore a miss as a whole.
//
// Not persisted, by design: AA query counters and analysis-manager
// cache counters. A warm compilation runs no passes, so it issues no
// queries; those counters are outside the byte-identity contract
// (which covers exe hash, IR text, -stats, and timing-row order).

// tuTarget is one persisted per-module compilation output.
type tuTarget struct {
	IR         string            `json:"ir"` // optimized module text
	Stats      []passes.Entry    `json:"stats"`
	Timing     []tuTimingRow     `json:"timing"`
	Code       *codegen.Result   `json:"code"`
	ModuleHash string            `json:"module_hash"`           // pristine module identity
	FuncHashes map[string]string `json:"func_hashes,omitempty"` // pristine function identities
}

type tuTimingRow struct {
	Pass    string `json:"pass"`
	Runs    int64  `json:"runs"`
	Changed int64  `json:"changed"`
}

// tuArtifact is the persisted whole-compilation payload.
type tuArtifact struct {
	Host   *tuTarget `json:"host"`
	Device *tuTarget `json:"device,omitempty"`
}

// tuCacheable reports whether this configuration's compilation can be
// served from (and persisted to) the translation-unit layer.
func (c Config) tuCacheable() bool {
	return c.DiskCache != nil && c.ORAQL == nil && !c.DebugPassExec &&
		(c.Module != nil || c.Source != "")
}

// tuKey derives the translation-unit artifact key. A pre-built module
// is keyed by its printed text; the frontend options do not apply.
func (c Config) tuKey(srcName string) string {
	if c.Module != nil {
		return diskcache.Key("tu-ir", c.Module.String(), c.diskConfigKey())
	}
	fe := fmt.Sprintf("dialect=%d|model=%d|views=%t",
		c.Frontend.Dialect, c.Frontend.Model, c.Frontend.Views)
	return diskcache.Key("tu", srcName, c.Source, fe, c.diskConfigKey())
}

// loadTU re-materializes a persisted compilation. The module is parsed
// back from its optimized text (irtext.Parse verifies it); any decode
// or parse failure degrades to a miss.
func loadTU(cfg Config, key string) (*CompileResult, bool) {
	data, ok := cfg.DiskCache.Get(key)
	if !ok {
		return nil, false
	}
	var art tuArtifact
	if json.Unmarshal(data, &art) != nil || art.Host == nil {
		return nil, false
	}
	host, ok := art.Host.materialize()
	if !ok {
		return nil, false
	}
	res := &CompileResult{Host: host}
	if art.Device != nil {
		dev, ok := art.Device.materialize()
		if !ok {
			return nil, false
		}
		res.Device = dev
	}
	res.Program = &irinterp.Program{Host: res.Host.Module}
	if res.Device != nil {
		res.Program.Device = res.Device.Module
	}
	return res, true
}

// materialize rebuilds one target's stats from a persisted artifact.
func (t *tuTarget) materialize() (*TargetStats, bool) {
	if t.Code == nil {
		return nil, false
	}
	m, err := irtext.Parse(t.IR)
	if err != nil {
		return nil, false
	}
	stats := passes.NewStats()
	for _, e := range t.Stats {
		stats.Add(e.Pass, e.Stat, e.Value)
	}
	timing := passes.NewTiming()
	for _, row := range t.Timing {
		timing.Seed(row.Pass, row.Runs, row.Changed)
	}
	return &TargetStats{
		Module: m, AA: aa.NewStats(), Pass: stats, Code: t.Code,
		Timing: timing, ModuleHash: t.ModuleHash, FuncHashes: t.FuncHashes,
		DiskHits: len(m.Funcs),
	}, true
}

// snapshotTU captures one freshly compiled target for persisting.
func snapshotTU(ts *TargetStats) *tuTarget {
	out := &tuTarget{
		IR:         ts.Module.String(),
		Stats:      ts.Pass.Ordered(),
		Code:       ts.Code,
		ModuleHash: ts.ModuleHash,
		FuncHashes: ts.FuncHashes,
	}
	if ts.Timing != nil {
		for _, row := range ts.Timing.Rows() {
			out.Timing = append(out.Timing, tuTimingRow{Pass: row.Pass, Runs: row.Runs, Changed: row.Changed})
		}
	}
	return out
}

// storeTU persists a completed compilation.
func storeTU(cfg Config, key string, res *CompileResult) {
	art := tuArtifact{Host: snapshotTU(res.Host)}
	if res.Device != nil {
		art.Device = snapshotTU(res.Device)
	}
	data, err := json.Marshal(&art)
	if err != nil {
		return
	}
	cfg.DiskCache.Put(key, data)
}
