// External test package: it compiles registered apps through the full
// pipeline, which (via the driver) imports warehouse itself.
package warehouse_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/oraql/go-oraql/internal/apps"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// TestCPGExportByteIdentical is the acceptance property of the graph
// layer: the exported CPG of a module is byte-identical across
// independent compilations (the in-process stand-in for separate
// processes).
func TestCPGExportByteIdentical(t *testing.T) {
	app := apps.ByID("testsnap-seq")
	if app == nil {
		t.Fatal("testsnap-seq not registered")
	}
	history := map[string]diskcache.VerdictCounts{
		"Early CSE|gep|gep": {Optimistic: 10, Pessimistic: 2},
	}
	export := func() []byte {
		cfg := pipeline.Config{
			Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
			Frontend: app.Frontend,
		}
		cr, err := pipeline.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := warehouse.ExportCPG(cr.Host.Module, warehouse.CPGOptions{
			Records: cr.Records(), History: history,
		})
		data, err := warehouse.MarshalGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := export()
	if len(base) == 0 {
		t.Fatal("empty graph export")
	}
	for round := 0; round < 2; round++ {
		if got := export(); !bytes.Equal(base, got) {
			t.Fatalf("CPG export differs at round=%d (%d vs %d bytes)",
				round, len(base), len(got))
		}
	}
}

func TestCPGStructure(t *testing.T) {
	app := apps.ByID("testsnap-seq")
	if app == nil {
		t.Fatal("testsnap-seq not registered")
	}
	cr, err := pipeline.Compile(pipeline.Config{
		Name: app.ID, Source: app.Source, SourceFile: app.SourceName,
		Frontend: app.Frontend,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := warehouse.ExportCPG(cr.Host.Module, warehouse.CPGOptions{})
	nodeKinds, _ := g.CountByKind()
	for _, kind := range []string{warehouse.NodeModule, warehouse.NodeFunc, warehouse.NodeBlock, warehouse.NodeInstr} {
		if nodeKinds[kind] == 0 {
			t.Errorf("graph has no %s nodes", kind)
		}
	}
	edgeKinds := map[string]bool{}
	for _, k := range g.EdgeKinds() {
		edgeKinds[k] = true
	}
	for _, kind := range []string{warehouse.EdgeContains, warehouse.EdgeCFG, warehouse.EdgeDom, warehouse.EdgeDFG} {
		if !edgeKinds[kind] {
			t.Errorf("graph has no %s edges", kind)
		}
	}
	// Node IDs are positional, so every edge endpoint must resolve.
	ids := map[string]bool{}
	for _, n := range g.Nodes {
		if ids[n.ID] {
			t.Fatalf("duplicate node ID %s", n.ID)
		}
		ids[n.ID] = true
	}
	for _, e := range g.Edges {
		if !ids[e.From] || !ids[e.To] {
			t.Fatalf("edge %s->%s (%s) references an unknown node", e.From, e.To, e.Kind)
		}
	}
	fmt.Fprintf(testWriter{t}, "cpg: %d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}
