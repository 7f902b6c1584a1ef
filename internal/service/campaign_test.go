package service_test

// End-to-end tests of POST /v1/campaign: scripted campaigns run as
// sandboxed async jobs with streamed events, cancellation, and
// server-enforced instruction and wall-clock limits.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/service"
)

func waitDone(t *testing.T, cl interface {
	Wait(ctx context.Context, id string, poll time.Duration) (*service.JobInfo, error)
}, id string) *service.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	info, err := cl.Wait(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return info
}

// TestCampaignEndToEnd runs a scripted probe campaign through the
// service and checks the result payload, the script hash in the job
// record, the streamed events, and the /metrics exposition.
func TestCampaignEndToEnd(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	script := `
		let r = probe({config: "minigmg-sse"})
		print("final seq:", r.final_seq)
		return {hash: r.exe_hash, optimistic: r.fully_optimistic}
	`
	sum := sha256.Sum256([]byte(script))
	wantSHA := hex.EncodeToString(sum[:])

	j, err := cl.Campaign(ctx, &service.CampaignRequest{Script: script})
	if err != nil {
		t.Fatalf("submit campaign: %v", err)
	}
	if j.Kind != "campaign" {
		t.Errorf("job kind = %q, want campaign", j.Kind)
	}
	if j.ScriptSHA256 != wantSHA {
		t.Errorf("job script sha = %q, want %q", j.ScriptSHA256, wantSHA)
	}

	info := waitDone(t, cl, j.ID)
	if info.State != service.JobDone {
		t.Fatalf("job state = %s (err %q)", info.State, info.Error)
	}
	if info.ScriptSHA256 != wantSHA {
		t.Errorf("finished job script sha = %q, want %q", info.ScriptSHA256, wantSHA)
	}
	var res service.CampaignResult
	if err := json.Unmarshal(info.Result, &res); err != nil {
		t.Fatalf("decode campaign result: %v", err)
	}
	if res.ScriptSHA256 != wantSHA {
		t.Errorf("result script sha = %q, want %q", res.ScriptSHA256, wantSHA)
	}
	if res.Steps == 0 {
		t.Error("campaign consumed zero steps")
	}
	var value map[string]any
	if err := json.Unmarshal(res.Value, &value); err != nil {
		t.Fatalf("decode campaign value: %v", err)
	}
	if value["optimistic"] != true {
		t.Errorf("minigmg-sse should probe fully optimistic, got %v", value)
	}
	if s, _ := value["hash"].(string); s == "" {
		t.Errorf("campaign value carries no exe hash: %v", value)
	}

	// Streamed events include the script's print() output.
	var events bytes.Buffer
	if err := cl.Events(ctx, j.ID, &events); err != nil {
		t.Fatalf("events: %v", err)
	}
	if !strings.Contains(events.String(), "final seq:") {
		t.Errorf("event stream missing print output:\n%s", events.String())
	}

	// The script hash and the kind-labeled job series are exported.
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`oraql_campaign_scripts_total{sha256="` + wantSHA + `"} 1`,
		`oraql_jobs_total{kind="campaign",state="done"} 1`,
		`oraql_jobs_inflight{kind="campaign"} 0`,
		`oraql_jobs_inflight{kind="probe"} 0`,
		`oraql_jobs_inflight{kind="fuzz"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCampaignSyntaxError pins the 400 path: a script that does not
// parse is rejected synchronously, with a line number, and never
// becomes a job.
func TestCampaignSyntaxError(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	_, err := cl.Campaign(context.Background(), &service.CampaignRequest{Script: "let = 3"})
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("got %v, want a line-1 syntax error", err)
	}
	if _, err := cl.Campaign(context.Background(), &service.CampaignRequest{}); err == nil ||
		!strings.Contains(err.Error(), "empty script") {
		t.Fatalf("got %v, want empty-script rejection", err)
	}
}

// TestCampaignInstructionLimit pins the sandbox budget: a runaway
// loop fails the job with a budget error instead of pinning a worker.
func TestCampaignInstructionLimit(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{CampaignMaxSteps: 5_000})
	defer stop()
	j, err := cl.Campaign(context.Background(), &service.CampaignRequest{
		Script: "while true { let x = 1 }",
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobFailed || !strings.Contains(info.Error, "instruction budget") {
		t.Fatalf("state=%s err=%q, want failed with budget error", info.State, info.Error)
	}
}

// TestCampaignRequestCannotRaiseBudget: a request asking for more
// steps than the server cap is clamped to the cap.
func TestCampaignRequestCannotRaiseBudget(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{CampaignMaxSteps: 2_000})
	defer stop()
	j, err := cl.Campaign(context.Background(), &service.CampaignRequest{
		Script:   "while true { let x = 1 }",
		MaxSteps: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobFailed || !strings.Contains(info.Error, "instruction budget") {
		t.Fatalf("state=%s err=%q, want clamped budget failure", info.State, info.Error)
	}
}

// TestCampaignWallClockLimit pins the time sandbox: a script that
// stays under the step budget but over the wall clock is killed.
func TestCampaignWallClockLimit(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{
		CampaignTimeout:  50 * time.Millisecond,
		CampaignMaxSteps: 1 << 40,
	})
	defer stop()
	j, err := cl.Campaign(context.Background(), &service.CampaignRequest{
		Script: "while true { let x = 1 }",
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobFailed || !strings.Contains(info.Error, "wall-clock limit") {
		t.Fatalf("state=%s err=%q, want wall-clock failure", info.State, info.Error)
	}
}

// TestCampaignCancel cancels a long-running scripted campaign via
// DELETE /v1/jobs/{id} and expects the canceled terminal state.
func TestCampaignCancel(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()
	j, err := cl.Campaign(ctx, &service.CampaignRequest{
		// Effectively unbounded work: sweep all configs many times.
		Script: "for i in range(1000) { sweep({}) }",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give it a moment to start, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := cl.Job(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == service.JobRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobCanceled {
		t.Fatalf("state = %s (err %q), want canceled", info.State, info.Error)
	}
}

// TestCampaignSandboxSurface asserts the sandbox is structural: the
// interpreter exposes no filesystem, exec, or network bindings.
func TestCampaignSandboxSurface(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	for _, name := range []string{"open", "read_file", "write_file", "exec", "system", "http_get", "env"} {
		j, err := cl.Campaign(context.Background(), &service.CampaignRequest{
			Script: name + "()",
		})
		if err != nil {
			t.Fatal(err)
		}
		info := waitDone(t, cl, j.ID)
		if info.State != service.JobFailed || !strings.Contains(info.Error, "undefined name") {
			t.Fatalf("%s(): state=%s err=%q, want undefined-name failure", name, info.State, info.Error)
		}
	}

	// A sequence is text: a seq of @<path> fails the script without
	// reading the file.
	j, err := cl.Campaign(context.Background(), &service.CampaignRequest{
		Script: fmt.Sprintf(`compile({config: "lulesh-seq", seq: "@%s"})`, secretFile(t)),
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobFailed || !strings.Contains(info.Error, "bad seq") || strings.Contains(info.Error, secretToken) {
		t.Fatalf("seq @file: state=%s err=%q, want a bad-seq failure that holds no byte of the file", info.State, info.Error)
	}
}

// TestCampaignScriptDefinedStrategy runs a register_strategy campaign
// through the service: a .oraql-defined probing strategy drives a
// probe end-to-end inside the job sandbox and must agree with the
// compiled-in linear strategy byte-for-byte.
func TestCampaignScriptDefinedStrategy(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	ctx := context.Background()

	script := `
		register_strategy("svc-linear", fn(n) {
			let decided = []
			for i in range(n) {
				decided = append(decided, false)
			}
			for i in range(n) {
				let cand = []
				for j in range(n) {
					if j == i {
						cand = append(cand, true)
					} else {
						cand = append(cand, decided[j])
					}
				}
				if probe_test(probe_pad(cand)) {
					decided[i] = true
				}
			}
			return decided
		})
		let mine = probe({config: "minife-openmp", strategy: "svc-linear"})
		let ref = probe({config: "minife-openmp", strategy: "linear"})
		return {
			same_exe: mine.exe_hash == ref.exe_hash,
			same_seq: mine.final_seq == ref.final_seq,
			guilty: len(mine.guilty_queries),
		}
	`
	j, err := cl.Campaign(ctx, &service.CampaignRequest{Script: script})
	if err != nil {
		t.Fatalf("submit campaign: %v", err)
	}
	info := waitDone(t, cl, j.ID)
	if info.State != service.JobDone {
		t.Fatalf("job state = %s (err %q)", info.State, info.Error)
	}
	var res service.CampaignResult
	if err := json.Unmarshal(info.Result, &res); err != nil {
		t.Fatalf("decode campaign result: %v", err)
	}
	var value map[string]any
	if err := json.Unmarshal(res.Value, &value); err != nil {
		t.Fatalf("decode campaign value: %v", err)
	}
	if value["same_exe"] != true || value["same_seq"] != true {
		t.Errorf("script-defined strategy diverged from compiled-in linear: %v", value)
	}
	// The strategy must actually have run: minife-openmp convicts, so
	// the fully-optimistic fast path cannot have skipped Solve.
	if g, _ := value["guilty"].(float64); g < 1 {
		t.Errorf("minife-openmp should convict at least one query: %v", value)
	}

	// The registration is job-scoped: a later campaign on the same
	// server must not see it.
	j2, err := cl.Campaign(ctx, &service.CampaignRequest{
		Script: `probe({config: "minife-openmp", strategy: "svc-linear"})`,
	})
	if err != nil {
		t.Fatal(err)
	}
	info2 := waitDone(t, cl, j2.ID)
	if info2.State != service.JobFailed || !strings.Contains(info2.Error, "unknown strategy") {
		t.Fatalf("state=%s err=%q, want unknown-strategy failure (overlay leaked?)", info2.State, info2.Error)
	}
}

// TestRegistryEndpoint checks GET /v1/registry lists every extension
// point with its entries.
func TestRegistryEndpoint(t *testing.T) {
	_, cl, stop := newTestServer(t, service.Config{})
	defer stop()
	regs, err := cl.Registry(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]int{}
	for _, r := range regs {
		byKind[r.Kind] = len(r.Entries)
	}
	for kind, min := range map[string]int{
		"strategy": 3, "aa-analysis": 7, "aa-chain": 2, "app-config": 10, "grammar": 5,
	} {
		if byKind[kind] < min {
			t.Errorf("registry kind %q has %d entries, want >= %d (all: %v)", kind, byKind[kind], min, byKind)
		}
	}
}
