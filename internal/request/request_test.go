package request

import (
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/driver"
	"github.com/oraql/go-oraql/internal/minic"
)

const src = "int main() { return 0; }\n"

// A config id compiles under its id with the configuration's own
// source name, and probes as apps.Config.Spec does; an inline source
// without a file name is request.mc.
func TestProgramTranslation(t *testing.T) {
	app := apps.ByID("gridmini-offload")
	cfg, err := (&CompileRequest{Program: ProgramSpec{ConfigID: app.ID, Model: "warp"}}).Config()
	if err != nil {
		t.Fatalf("a config id ignores the source-only fields: %v", err)
	}
	if cfg.Name != app.ID || cfg.SourceFile != app.SourceName || cfg.Frontend != app.Frontend {
		t.Errorf("config id compile: %q %q %+v", cfg.Name, cfg.SourceFile, cfg.Frontend)
	}
	spec, err := (&ProbeRequest{Program: ProgramSpec{ConfigID: app.ID}}).Spec(driver.StrategyByName)
	if err != nil {
		t.Fatal(err)
	}
	want := app.Spec()
	if spec.Name != want.Name || spec.Compile.SourceFile != want.Compile.SourceFile || spec.ORAQL.Target != want.ORAQL.Target {
		t.Errorf("config id probe: %q %q target %q, want %q %q target %q", spec.Name, spec.Compile.SourceFile,
			spec.ORAQL.Target, want.Name, want.Compile.SourceFile, want.ORAQL.Target)
	}

	req := &ProbeRequest{
		Program: ProgramSpec{Source: src, Model: "mpi", Fortran: true, Ranks: 4},
		Target:  "host",
	}
	spec, err = req.Spec(driver.StrategyByName)
	if err != nil {
		t.Fatal(err)
	}
	fe := minic.Options{Dialect: minic.DialectFortran, Model: minic.ModelMPI}
	if spec.Name != "request.mc" || spec.Compile.SourceFile != "request.mc" || spec.Compile.Frontend != fe ||
		spec.Run.NumRanks != 4 || spec.ORAQL.Target != "host" {
		t.Errorf("source probe: %q %q %+v ranks %d target %q", spec.Name, spec.Compile.SourceFile,
			spec.Compile.Frontend, spec.Run.NumRanks, spec.ORAQL.Target)
	}
}

// An omitted grammar and seed resolve to the default profile, under its
// own label, and seed 1; triage is on unless NoTriage says otherwise.
func TestFuzzDefaults(t *testing.T) {
	opts, err := (&FuzzRequest{}).Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Grammar != "default" || opts.Seed != 1 || !opts.Triage || opts.Variants != nil {
		t.Errorf("defaults: grammar %q seed %d triage %v variants %d", opts.Grammar, opts.Seed, opts.Triage, len(opts.Variants))
	}
	opts, err = (&FuzzRequest{Grammar: "scalar", Stmts: 3, NoTriage: true, Inject: true}).Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Grammar != "scalar" || opts.Gen.Stmts != 3 || opts.Triage || len(opts.Variants) != 1 {
		t.Errorf("explicit: grammar %q stmts %d triage %v variants %d", opts.Grammar, opts.Gen.Stmts, opts.Triage, len(opts.Variants))
	}
}
