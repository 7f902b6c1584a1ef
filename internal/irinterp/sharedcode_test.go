package irinterp_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/irinterp"
	"github.com/oraql/go-oraql/internal/oraql"
	"github.com/oraql/go-oraql/internal/pipeline"
)

// TestSharedCodeConcurrentRuns: decoded code, with the decoder's proofs
// and segment charges, is immutable once built, so runs may share it
// the way speculative tests, the overlapped optimistic test and MPI
// ranks do. Four goroutines run every configuration's fully
// optimistic program, each configuration through one code cache that
// all four share, and every run must report exactly what a solo run
// with its own code reports. Run it under -race.
func TestSharedCodeConcurrentRuns(t *testing.T) {
	type job struct {
		id   string
		prog *irinterp.Program
		opts irinterp.Options
		want string
	}
	render := func(res *irinterp.Result, err error) string {
		if err != nil {
			return "trap " + err.Error()
		}
		return fmt.Sprintf("%+v", *res)
	}
	var jobs []job
	for _, cfg := range apps.All() {
		cr, err := pipeline.Compile(pipeline.Config{
			Name: cfg.ID, Source: cfg.Source, SourceFile: cfg.SourceName,
			Frontend: cfg.Frontend, ORAQL: &oraql.Options{Target: cfg.ORAQLTarget},
		})
		if err != nil {
			t.Fatalf("%s: compile: %v", cfg.ID, err)
		}
		solo := *cr.Program
		solo.Code = nil
		shared := solo
		shared.Code = &irinterp.CodeCache{}
		jobs = append(jobs, job{cfg.ID, &shared, cfg.Run, render(irinterp.Run(&solo, cfg.Run))})
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(jobs))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker starts at another configuration, so first
			// decodes race with runs of code already decoded.
			for k := range jobs {
				j := jobs[(k+w*len(jobs)/workers)%len(jobs)]
				res, err := irinterp.Run(j.prog, j.opts)
				if got := render(res, err); got != j.want {
					errs <- fmt.Sprintf("worker %d, %s:\n got:  %s\n want: %s", w, j.id, got, j.want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
