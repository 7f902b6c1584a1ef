package pipeline

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/codegen"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/irtext"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/passes"
)

// Translation-unit artifacts: the pipeline's only disk-cache layer.
// One rule decides what goes through it (tuCacheable): every
// compilation with a store that prints nothing, ORAQL compilations
// (a probe's final build among them) included. compileTU reads and
// files them; Session.Adopt files a compile-session build that stands
// for a live compilation, through the same rule and storeTU. An
// artifact is keyed by the input — the source text (pre-frontend) or,
// for a pre-built module, its printed text, in a key domain of its
// own — and every output-affecting configuration knob, the ORAQL
// options that shape the output included. A hit skips the frontend,
// AA chain, pass pipeline and codegen entirely — the optimized module is
// re-materialized from its persisted text and the deterministic
// outputs (exe hash and machine statistics, -stats counters, timing
// rows, AA statistics, and for an ORAQL compilation its counters and
// query records) are replayed, byte-identical to a cold compilation.
//
// The key covers the whole module on purpose: the AA chain holds
// module-level analyses (Globals, Andersen, Steensgaard) that read
// every function and global, so an edit anywhere can change the
// optimized code of an untouched function. An edited program is
// therefore a miss as a whole.
//
// An artifact is a gob-encoded snapshot. One without AA statistics,
// in the older JSON form, or whose query records do not check against
// its sequence and counters (oraql.Restore) reads as a miss. Not
// persisted, by design: the analysis-manager cache counters and pass
// wall times. A restored compilation runs no passes; those numbers are
// outside the byte-identity contract (which covers exe hash, IR text,
// -stats, timing-row order, AA and ORAQL statistics and the query
// records).

// snapshot is a finished compilation in persisted form, one
// targetSnapshot per target.
type snapshot struct {
	Host   *targetSnapshot
	Device *targetSnapshot
}

// targetSnapshot is one target's persisted compilation output.
type targetSnapshot struct {
	IR         string // optimized module text
	Stats      []passes.Entry
	Timing     []timingRow
	Code       *codegen.Result
	AA         *aa.Stats
	ModuleHash string            // pristine module identity
	FuncHashes map[string]string // pristine function identities
	// ORAQL and Records are set exactly when the pass was on.
	ORAQL   *oraql.Stats
	Records *oraql.RenderedRecords
}

type timingRow struct {
	Pass    string
	Runs    int64
	Changed int64
}

// tuCacheable reports whether this configuration's compilation is
// served from (and persisted to) the translation-unit layer: it has a
// store and an input, and prints nothing.
func (c Config) tuCacheable() bool {
	return c.DiskCache != nil && !c.Dumps() && (c.Module != nil || c.Source != "")
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

// loadTU re-materializes a persisted compilation; any decode, parse
// or validation failure degrades to a miss.
func loadTU(cfg Config, key string) (*CompileResult, bool) {
	data, ok := cfg.DiskCache.Get(key)
	if !ok {
		return nil, false
	}
	var snap snapshot
	if gob.NewDecoder(bytes.NewReader(data)).Decode(&snap) != nil {
		return nil, false
	}
	return snap.restore(cfg.ORAQL)
}

// storeTU persists a completed compilation. The artifact is gob, not
// JSON: a warm load decodes it in about 60% of the time, because the
// IR text is stored as it is, not escaped.
func storeTU(cfg Config, key string, res *CompileResult) {
	var buf bytes.Buffer
	if gob.NewEncoder(&buf).Encode(takeSnapshot(res)) != nil {
		return
	}
	cfg.DiskCache.Put(key, buf.Bytes())
}

// takeSnapshot captures a finished compilation for persisting. Its
// query records are complete: compileTU compiles every step live, and
// Session.Adopt is handed only a compilation that replayed no step.
func takeSnapshot(cr *CompileResult) *snapshot {
	snap := &snapshot{Host: snapshotTarget(cr.Host)}
	if cr.Device != nil {
		snap.Device = snapshotTarget(cr.Device)
	}
	return snap
}

func snapshotTarget(ts *TargetStats) *targetSnapshot {
	out := &targetSnapshot{
		IR:         ts.Module.String(),
		Stats:      ts.Pass.Ordered(),
		Code:       ts.Code,
		AA:         ts.AA,
		ModuleHash: ts.ModuleHash,
		FuncHashes: ts.FuncHashes,
	}
	if ts.Timing != nil {
		for _, row := range ts.Timing.Rows() {
			out.Timing = append(out.Timing, timingRow{Pass: row.Pass, Runs: row.Runs, Changed: row.Changed})
		}
	}
	if ts.ORAQL != nil {
		stats := ts.ORAQL.Stats()
		out.ORAQL = &stats
		out.Records = oraql.Render(ts.ORAQL.Records())
	}
	return out
}

// restore rebuilds the compilation a snapshot captured, as compiled
// with ORAQL options opts (nil: the pass was off). Each module is
// parsed back from its optimized text (irtext.Parse verifies it), and
// the ORAQL counters and records are checked against opts
// (oraql.Restore). It fails when a target lacks an output, carries
// ORAQL state that opts contradicts, or does not parse or check.
func (s *snapshot) restore(opts *oraql.Options) (*CompileResult, bool) {
	host, ok := s.Host.restore(opts)
	if !ok {
		return nil, false
	}
	res := &CompileResult{Host: host, Program: &irinterp.Program{Host: host.Module}}
	if s.Device != nil {
		if res.Device, ok = s.Device.restore(opts); !ok {
			return nil, false
		}
		res.Program.Device = res.Device.Module
	}
	return res, true
}

// restore rebuilds one target's stats.
func (t *targetSnapshot) restore(opts *oraql.Options) (*TargetStats, bool) {
	if t == nil || t.Code == nil || t.AA == nil || (opts == nil) != (t.ORAQL == nil) ||
		(opts != nil) != (t.Records != nil) {
		return nil, false
	}
	var op *oraql.Pass
	if opts != nil {
		var err error
		if op, err = oraql.Restore(*opts, *t.ORAQL, t.Records); err != nil {
			return nil, false
		}
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
		Module: m, AA: t.AA.Clone(), Pass: stats, ORAQL: op, Code: t.Code,
		Timing: timing, ModuleHash: t.ModuleHash, FuncHashes: t.FuncHashes,
		DiskHits: len(m.Funcs),
	}, true
}
