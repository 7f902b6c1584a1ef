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
	"github.com/oraql/go-oraql/internal/report"
	"github.com/oraql/go-oraql/internal/request"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
)

// TestSurfacesAgree runs one inline-source probe and one compile
// through each surface that builds a request: a campaign script,
// oraql-serve and the oraql CLI. Each surface fills a request type of
// internal/request and calls its one translation, so they agree on the
// probe's name, final sequence, exe hash and convictions, and on the
// whole compile report less its timings.
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
	}
	want = ""
	for _, s := range compiles {
		var c report.CompileJSON
		if err := s.run(&c); err != nil {
			t.Fatalf("%s compile: %v", s.surface, err)
		}
		c.Timing = nil
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = string(data)
		} else if string(data) != want {
			t.Errorf("%s compile differs\n got: %s\nwant: %s", s.surface, data, want)
		}
	}
}
