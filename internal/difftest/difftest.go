// Package difftest is the differential fuzzing and miscompile-triage
// subsystem. It drives the UB-free program generator (internal/progen)
// through a differential oracle: every generated program is compiled
// unoptimized and under a matrix of optimized AA configurations, all
// runs are compared through verify.Spec, and any divergence is a
// miscompilation by construction.
//
// On a divergence the triage pipeline (triage.go) automatically
//
//  1. delta-debugs the minic source to a minimal reproducer,
//  2. bisects the pass pipeline to the first pass whose prefix
//     miscompiles, and
//  3. when the divergence was caused by ORAQL's optimistic responder,
//     bisects the response sequence to the minimal guilty query set —
//     the exact alias queries whose optimistic answer breaks the
//     program (the automated version of the paper's Section IV
//     probe-and-verify workflow, pointed inward at our own pipeline).
//
// The cmd/oraql-fuzz CLI and the go test fuzz targets are thin
// wrappers over this package.
package difftest

import (
	"fmt"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/minic"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/progen"
	"github.com/oraql/go-oraql/internal/verify"
)

// Variant is one optimized compilation configuration checked against
// the unoptimized reference of the same frontend model.
type Variant struct {
	Name  string      `json:"name"`
	Model minic.Model `json:"model"`
	// OptLevel 0 means the default -O3 pipeline, 1 the reduced one.
	OptLevel             int  `json:"opt_level,omitempty"`
	FullAAChain          bool `json:"full_aa_chain,omitempty"`
	DisableAnalysisCache bool `json:"disable_analysis_cache,omitempty"`
	// AAChain selects the alias-analysis chain by registered name or
	// comma list (pipeline.Config.AAChain); empty defers to FullAAChain.
	AAChain string `json:"aa_chain,omitempty"`
	// BlockAA consults an empty-sequence blocking-mode ORAQL pass
	// before the chain, suppressing every conservative analysis. More
	// pessimism is always sound, so this variant must never diverge.
	BlockAA bool `json:"block_aa,omitempty"`
	// InjectOptimistic appends a fully-optimistic ORAQL responder:
	// every otherwise-unanswerable query is answered no-alias. This is
	// deliberately unsound — it is the fault injection that proves the
	// triage path end to end.
	InjectOptimistic bool `json:"inject_optimistic,omitempty"`
}

// config builds the pipeline configuration for one source under the
// variant, with the pipeline truncated after stopAfter passes (0 =
// full pipeline).
func (v Variant) config(name, file, src string, stopAfter int) pipeline.Config {
	cfg := pipeline.Config{
		Name:                 name,
		Source:               src,
		SourceFile:           file,
		Frontend:             minic.Options{Model: v.Model},
		OptLevel:             v.OptLevel,
		StopAfter:            stopAfter,
		FullAAChain:          v.FullAAChain,
		AAChain:              v.AAChain,
		DisableAnalysisCache: v.DisableAnalysisCache,
	}
	switch {
	case v.InjectOptimistic:
		cfg.ORAQL = &oraql.Options{}
	case v.BlockAA:
		cfg.ORAQL = &oraql.Options{Mode: oraql.ModeBlocking}
	}
	return cfg
}

// withSeq returns the variant's config with an explicit ORAQL response
// sequence (query bisection).
func (v Variant) configWithSeq(name, file, src string, seq oraql.Seq) pipeline.Config {
	cfg := v.config(name, file, src, 0)
	cfg.ORAQL = &oraql.Options{Seq: seq}
	return cfg
}

// Variants is the sound AA-configuration matrix: every entry must
// agree with the unoptimized build on every UB-free program. A
// divergence in any of them is a real miscompilation at head.
func Variants() []Variant {
	return []Variant{
		{Name: "o3"},
		{Name: "o3-fullaa", FullAAChain: true},
		{Name: "o3-no-analysis-cache", DisableAnalysisCache: true},
		{Name: "o1", OptLevel: 1},
		{Name: "o3-blocked-aa", BlockAA: true},
		{Name: "o3-openmp", Model: minic.ModelOpenMP},
		{Name: "o3-offload", Model: minic.ModelOffload},
	}
}

// InjectVariant is the deliberately-unsound configuration used to
// exercise the triage path.
func InjectVariant() Variant {
	return Variant{Name: "o3-inject-optimistic", InjectOptimistic: true}
}

// Divergence describes one miscompilation found by the oracle.
type Divergence struct {
	Program *progen.Program
	Variant Variant
	// Ref and Got are the unoptimized and optimized outputs; RunErr is
	// set when the optimized run crashed or tripped the simulator.
	Ref, Got string
	RunErr   string
}

func (d *Divergence) String() string {
	if d.RunErr != "" {
		return fmt.Sprintf("seed %d, variant %s: optimized run failed: %s", d.Program.Seed, d.Variant.Name, d.RunErr)
	}
	return fmt.Sprintf("seed %d, variant %s: output diverges:\n ref: %q\n got: %q",
		d.Program.Seed, d.Variant.Name, d.Ref, d.Got)
}

// CheckOptions configures one oracle invocation.
type CheckOptions struct {
	Run      irinterp.Options
	Variants []Variant
	// Cache, when non-nil, backs every oracle compilation with the
	// persistent store: re-checking a seed already compiled by a prior
	// campaign (or another process) reuses its artifacts, those of the
	// ORAQL variants included, whose keys hold their ORAQL options. A
	// served compilation is byte-identical to a cold one, so the
	// oracle's verdict is identical with or without the cache.
	Cache *diskcache.Store
}

// reference compiles src unoptimized under the model and returns its
// output, which by the generator's UB-freedom is the ground truth.
func reference(name, file, src string, model minic.Model, opts CheckOptions) (string, error) {
	cr, err := pipeline.Compile(pipeline.Config{
		Name: name, Source: src, SourceFile: file,
		Frontend: minic.Options{Model: model}, OptLevel: -1,
		DiskCache: opts.Cache,
	})
	if err != nil {
		return "", fmt.Errorf("reference compile: %w", err)
	}
	res, err := irinterp.Run(cr.Program, opts.Run)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	return res.Stdout, nil
}

// Check runs the differential oracle on one program and returns the
// first divergence, or nil when every variant agrees with its
// reference. Compile or reference-run failures are returned as errors:
// a generated program that does not build cleanly is a harness bug,
// not a miscompile.
func Check(p *progen.Program, opts CheckOptions) (*Divergence, error) {
	variants := opts.Variants
	if len(variants) == 0 {
		variants = Variants()
	}
	refs := map[minic.Model]*verify.Spec{}
	for _, v := range variants {
		spec := refs[v.Model]
		if spec == nil {
			out, err := reference(fmt.Sprintf("seed%d-ref", p.Seed), p.FileName, p.Source, v.Model, opts)
			if err != nil {
				return nil, fmt.Errorf("seed %d model %d: %w", p.Seed, v.Model, err)
			}
			spec = &verify.Spec{References: []string{out}}
			if err := spec.Compile(); err != nil {
				return nil, err
			}
			refs[v.Model] = spec
		}
		vcfg := v.config(fmt.Sprintf("seed%d-%s", p.Seed, v.Name), p.FileName, p.Source, 0)
		vcfg.DiskCache = opts.Cache
		cr, err := pipeline.Compile(vcfg)
		if err != nil {
			return nil, fmt.Errorf("seed %d variant %s: compile: %w", p.Seed, v.Name, err)
		}
		res, runErr := irinterp.Run(cr.Program, opts.Run)
		var stdout string
		if res != nil {
			stdout = res.Stdout
		}
		if r := spec.Check(stdout, runErr); !r.OK {
			d := &Divergence{Program: p, Variant: v, Ref: spec.References[0], Got: stdout}
			if runErr != nil {
				d.RunErr = runErr.Error()
			}
			return d, nil
		}
	}
	return nil, nil
}
