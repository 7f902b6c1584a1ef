package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/campaign"
	"github.com/oraql/go-oraql/internal/difftest"
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
)

// TestSurfacesAgree runs one inline-source probe, one compile and one
// fuzz campaign through each surface that builds a request: a campaign
// script, oraql-serve and the oraql CLI (probe, opt and fuzz). Each
// surface fills a request type of internal/request and calls its one
// translation, so they agree on the probe's name, final sequence, exe
// hash and convictions, on the compile report less its timings (of
// which `oraql opt` prints the exe hash and the ORAQL counters), and on
// the whole campaign report.
func TestSurfacesAgree(t *testing.T) {
	src, err := os.ReadFile("../../internal/driver/testdata/pick_mat.mc")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pick_mat.mc")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	program := request.ProgramSpec{Source: string(src), SourceFile: path, Model: "openmp"}
	scriptProgram := fmt.Sprintf(`source: %q, model: "openmp", name: %q`, src, path)

	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	cl := client.New(ts.URL)
	ctx := context.Background()

	script := func(call string, out any) error {
		res, err := campaign.Run("return "+call, campaign.Options{})
		if err != nil {
			return err
		}
		data, err := json.Marshal(res.Value)
		if err != nil {
			return err
		}
		return json.Unmarshal(data, out)
	}

	probes := []struct {
		surface string
		run     func(p *report.ProbeJSON) error
	}{
		{"script", func(p *report.ProbeJSON) error {
			return script(fmt.Sprintf("probe({%s, workers: 1})", scriptProgram), p)
		}},
		{"http", func(p *report.ProbeJSON) error {
			info, err := cl.Probe(ctx, &request.ProbeRequest{Program: program, Workers: 1})
			if err != nil {
				return err
			}
			if info, err = cl.Wait(ctx, info.ID, 10*time.Millisecond); err != nil {
				return err
			}
			if info.State != service.JobDone {
				return fmt.Errorf("job %s: %s", info.State, info.Error)
			}
			return json.Unmarshal(info.Result, p)
		}},
		{"cli", func(p *report.ProbeJSON) error {
			var out strings.Builder
			if err := run([]string{"probe", "-file", path, "-model", "openmp", "-j", "1", "-json"}, &out, io.Discard); err != nil {
				return err
			}
			return json.Unmarshal([]byte(out.String()), p)
		}},
	}
	// outcome is what every surface must agree on: effort counters and
	// timings are left out.
	outcome := func(p *report.ProbeJSON) string {
		data, err := json.Marshal(struct {
			Name, FinalSeq, ExeHash string
			Guilty                  []report.QueryJSON
		}{p.Name, p.FinalSeq, p.ExeHash, p.GuiltyQueries})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var want string
	for _, s := range probes {
		var p report.ProbeJSON
		if err := s.run(&p); err != nil {
			t.Fatalf("%s probe: %v", s.surface, err)
		}
		if len(p.GuiltyQueries) == 0 {
			t.Errorf("%s probe convicted nothing; the program should convict", s.surface)
		}
		got := outcome(&p)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s probe differs\n got: %s\nwant: %s", s.surface, got, want)
		}
	}

	compiles := []struct {
		surface string
		run     func(c *report.CompileJSON) error
	}{
		{"script", func(c *report.CompileJSON) error {
			return script(fmt.Sprintf(`compile({%s, oraql: true, seq: "1 0"})`, scriptProgram), c)
		}},
		{"http", func(c *report.CompileJSON) error {
			resp, err := cl.Compile(ctx, &request.CompileRequest{
				Program: program,
				Options: request.CompileOptions{ORAQL: true, Seq: "1 0"},
			})
			if err != nil {
				return err
			}
			return json.Unmarshal(resp.Result, c)
		}},
		{"cli", func(c *report.CompileJSON) error {
			var out, errw strings.Builder
			if err := run([]string{"opt", path, "-model", "openmp", "-opt-aa-seq", "1 0", "-stats"}, &out, &errw); err != nil {
				return err
			}
			return parseOptReport(out.String(), errw.String(), c)
		}},
	}
	// printed is what `oraql opt` prints of a compile report.
	printed := func(c *report.CompileJSON) string {
		data, err := json.Marshal(struct {
			ExeHash string
			ORAQL   *report.ORAQLStatsJSON
		}{c.ExeHash, c.ORAQL})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var wantReport *report.CompileJSON
	for _, s := range compiles {
		var c report.CompileJSON
		if err := s.run(&c); err != nil {
			t.Fatalf("%s compile: %v", s.surface, err)
		}
		c.Timing = nil
		if wantReport == nil {
			wantReport = &c
			continue
		}
		if got, want := printed(&c), printed(wantReport); got != want {
			t.Errorf("%s compile differs\n got: %s\nwant: %s", s.surface, got, want)
		}
		if s.surface == "cli" {
			continue
		}
		got, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(wantReport); string(got) != string(want) {
			t.Errorf("%s compile differs\n got: %s\nwant: %s", s.surface, got, want)
		}
	}

	// An injected campaign diverges, so the reports carry a triaged
	// divergence to agree on.
	fuzzReq := request.FuzzRequest{N: 10, Seed: 1, Workers: 1, Inject: true, MaxDivergences: 1}
	fuzzes := []struct {
		surface string
		run     func(r *difftest.FuzzResult) error
	}{
		{"script", func(r *difftest.FuzzResult) error {
			return script("fuzz({n: 10, seed: 1, workers: 1, inject: true, max_divergences: 1})", r)
		}},
		{"http", func(r *difftest.FuzzResult) error {
			return fuzzViaHTTP(ctx, cl, &fuzzReq, r)
		}},
		{"cli", func(r *difftest.FuzzResult) error {
			var out strings.Builder
			if err := run([]string{"fuzz", "-n", "10", "-seed", "1", "-j", "1", "-inject", "-max-div", "1", "-json", "-"}, &out, io.Discard); err != nil {
				return err
			}
			return json.NewDecoder(strings.NewReader(out.String())).Decode(r)
		}},
	}
	want = ""
	for _, s := range fuzzes {
		var r difftest.FuzzResult
		if err := s.run(&r); err != nil {
			t.Fatalf("%s fuzz: %v", s.surface, err)
		}
		if len(r.Divergences) != 1 || r.Divergences[0].Triage == nil {
			t.Errorf("%s fuzz: want one triaged divergence, got %d", s.surface, len(r.Divergences))
		}
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(data)
		} else if string(data) != want {
			t.Errorf("%s fuzz differs\n got: %s\nwant: %s", s.surface, data, want)
		}
	}
}

// fuzzViaHTTP runs a campaign as a POST /v1/fuzz job.
func fuzzViaHTTP(ctx context.Context, cl *client.Client, req *request.FuzzRequest, r *difftest.FuzzResult) error {
	info, err := cl.Fuzz(ctx, req)
	if err != nil {
		return err
	}
	if info, err = cl.Wait(ctx, info.ID, 10*time.Millisecond); err != nil {
		return err
	}
	if info.State != service.JobDone {
		return fmt.Errorf("job %s: %s", info.State, info.Error)
	}
	return json.Unmarshal(info.Result, r)
}

// parseOptReport reads back what `oraql opt -stats` prints of a compile
// report: the exe hash on stderr and the ORAQL counters on stdout.
func parseOptReport(stdout, stderr string, c *report.CompileJSON) error {
	for _, line := range strings.Split(stderr, "\n") {
		if h, ok := strings.CutPrefix(line, "exe hash: "); ok {
			c.ExeHash = h
		}
	}
	c.ORAQL = &report.ORAQLStatsJSON{}
	counters := map[string]*int{
		"unique optimistic": &c.ORAQL.UniqueOptimistic, "cached optimistic": &c.ORAQL.CachedOptimistic,
		"unique pessimistic": &c.ORAQL.UniquePessimistic, "cached pessimistic": &c.ORAQL.CachedPessimistic,
	}
	for _, line := range strings.Split(stdout, "\n") {
		var n int
		var kind, polarity string
		if _, err := fmt.Sscanf(line, "%d oraql - Number of %s %s responses", &n, &kind, &polarity); err == nil {
			if p := counters[kind+" "+polarity]; p != nil {
				*p = n
				delete(counters, kind+" "+polarity)
			}
		}
	}
	if c.ExeHash == "" || len(counters) > 0 {
		return fmt.Errorf("oraql opt printed no exe hash or not every ORAQL counter:\n%s%s", stdout, stderr)
	}
	return nil
}
