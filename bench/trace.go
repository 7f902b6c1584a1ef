package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// tracer keeps the spans of one traced run in memory. The benchmark
// opens a span around each call it makes into a layer's public
// functions; nothing inside the program is instrumented. A nil tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span,
// -1 for a root; Tid groups spans of one sequential caller.
type span struct {
	Name   string
	Tid    int
	Parent int
	Start  time.Duration
	Dur    time.Duration
	Args   map[string]any
	closed bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(tid, parent int, name string, args map[string]any) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Tid: tid, Parent: parent, Start: time.Since(t.t0), Args: args})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.Dur = time.Since(t.t0) - s.Start
	s.closed = true
}

// write stores the spans as Chrome trace-event JSON (trace-<w>.json,
// loadable in chrome://tracing or Perfetto) and a self-time table
// (selftime-<w>.txt) under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.closed {
			continue
		}
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid, Args: s.Args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "selftime-"+workload+".txt"), []byte(t.selfTimeTable()), 0o644)
}

// selfTimeTable sums, per span name, the call count, the total time
// and the self time: a span's duration minus that of its children.
func (t *tracer) selfTimeTable() string {
	type agg struct {
		calls       int
		total, self time.Duration
	}
	by := map[string]*agg{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.closed && s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	for i, s := range t.spans {
		if !s.closed {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.calls++
		a.total += s.Dur
		a.self += s.Dur - child[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls\ttotal ms\tself ms\t")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t\n", n, a.calls, ms(a.total), ms(a.self))
	}
	tw.Flush()
	return b.String()
}
