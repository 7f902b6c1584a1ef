package warehouse

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"github.com/oraql/go-oraql/internal/aa"
	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/ir"
	"github.com/oraql/go-oraql/internal/oraql"
)

// Node and edge kinds of the code property graph (after Küchler &
// Banse: one typed graph superimposing structure, control flow, data
// flow, and — our extension — alias facts and ORAQL verdicts).
const (
	NodeModule   = "module"
	NodeGlobal   = "global"
	NodeFunc     = "func"
	NodeBlock    = "block"
	NodeInstr    = "instr"
	NodeArg      = "arg"
	EdgeContains = "CONTAINS"
	EdgeCFG      = "CFG"
	EdgeDom      = "DOM"
	EdgeDFG      = "DFG"
	EdgeCall     = "CALL"
	EdgeAlias    = "ALIAS"
	EdgeORAQL    = "ORAQL"
)

// Node is one typed CPG vertex. IDs are positional ("f1.b2.i3"), so
// the same module exports the same graph in every process.
type Node struct {
	ID    string            `json:"id"`
	Kind  string            `json:"kind"`
	Label string            `json:"label"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Edge is one typed CPG edge between node IDs.
type Edge struct {
	From  string            `json:"from"`
	To    string            `json:"to"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Graph is the exported code property graph.
type Graph struct {
	Module string `json:"module"`
	Nodes  []Node `json:"nodes"`
	Edges  []Edge `json:"edges"`
}

// CPGOptions controls what the exporter superimposes on the IR
// skeleton.
type CPGOptions struct {
	// Records attaches ORAQL verdict edges from a finished compile
	// (pipeline CompileResult.Records()).
	Records []*oraql.QueryRecord
	// History annotates ORAQL edges with fleet-wide verdict counts per
	// query shape (Manifest.ShapePriors()).
	History map[string]diskcache.VerdictCounts
	// MaxAliasPairs caps per-function memory accesses considered for
	// ALIAS edges; 0 means the default of 24, negative disables alias
	// edges entirely.
	MaxAliasPairs int
	// Chain overrides the AA chain used for ALIAS edges (default
	// aa.DefaultChain over the module).
	Chain []aa.Analysis
}

// ExportCPG walks a module into its code property graph. The walk is
// a pure function of the module and options: node and edge order
// follow IR declaration order, so exports are byte-identical across
// processes and worker counts.
func ExportCPG(m *ir.Module, opts CPGOptions) *Graph {
	b := &cpgBuilder{
		g:       &Graph{Module: m.Name},
		byValue: map[ir.Value]string{},
		byFunc:  map[string]string{},
	}
	b.node("m", NodeModule, m.Name, map[string]string{"target": m.Target})
	for i, g := range m.Globals {
		id := fmt.Sprintf("g%d", i)
		b.byValue[g] = id
		b.node(id, NodeGlobal, g.Ident(), map[string]string{
			"size":  strconv.FormatInt(g.Size, 10),
			"const": strconv.FormatBool(g.Const),
		})
		b.edge("m", id, EdgeContains, nil)
	}
	for fi, f := range m.Funcs {
		b.addFunc(fi, f)
	}
	// Second pass: CALL edges need every callee registered first.
	for _, f := range m.Funcs {
		b.addCalls(f)
	}
	b.addAliasEdges(m, opts)
	b.addORAQLEdges(opts)
	return b.g
}

type cpgBuilder struct {
	g       *Graph
	byValue map[ir.Value]string // def sites: globals, args, instrs
	byFunc  map[string]string   // function name -> node ID
}

func (b *cpgBuilder) node(id, kind, label string, attrs map[string]string) {
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Kind: kind, Label: label, Attrs: attrs})
}

func (b *cpgBuilder) edge(from, to, kind string, attrs map[string]string) {
	b.g.Edges = append(b.g.Edges, Edge{From: from, To: to, Kind: kind, Attrs: attrs})
}

func (b *cpgBuilder) addFunc(fi int, f *ir.Func) {
	fid := fmt.Sprintf("f%d", fi)
	b.byFunc[f.Name] = fid
	b.node(fid, NodeFunc, f.Name, map[string]string{
		"blocks": strconv.Itoa(len(f.Blocks)),
	})
	b.edge("m", fid, EdgeContains, nil)
	for ai, a := range f.Params {
		id := fmt.Sprintf("%s.a%d", fid, ai)
		b.byValue[a] = id
		b.node(id, NodeArg, a.Ident(), nil)
		b.edge(fid, id, EdgeContains, nil)
	}
	blockID := map[*ir.Block]string{}
	for bi, blk := range f.Blocks {
		bid := fmt.Sprintf("%s.b%d", fid, bi)
		blockID[blk] = bid
		b.node(bid, NodeBlock, blk.Name, nil)
		b.edge(fid, bid, EdgeContains, nil)
		for ii, in := range blk.Instrs {
			id := fmt.Sprintf("%s.i%d", bid, ii)
			b.byValue[in] = id
			b.node(id, NodeInstr, in.Op.String(), instrAttrs(in))
			b.edge(bid, id, EdgeContains, nil)
		}
	}
	// CFG edges follow block order; DOM edges come from the dominator
	// tree (entry's idom is itself and is skipped).
	info := cfg.New(f)
	for _, blk := range f.Blocks {
		for _, s := range blk.Succs() {
			b.edge(blockID[blk], blockID[s], EdgeCFG, nil)
		}
	}
	for _, blk := range f.Blocks {
		if id := info.IDom(blk); id != nil && id != blk {
			b.edge(blockID[id], blockID[blk], EdgeDom, nil)
		}
	}
	// DFG edges: def site -> using instruction, in operand order.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			use := b.byValue[in]
			for _, op := range in.Operands {
				if def, ok := b.byValue[op]; ok {
					b.edge(def, use, EdgeDFG, nil)
				}
			}
		}
	}
}

func (b *cpgBuilder) addCalls(f *ir.Func) {
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op != ir.OpCall || in.Callee == "" {
				continue
			}
			if callee, ok := b.byFunc[in.Callee]; ok {
				b.edge(b.byValue[in], callee, EdgeCall, map[string]string{"callee": in.Callee})
			}
		}
	}
}

// addAliasEdges runs the AA chain over a bounded set of per-function
// memory accesses and records every definitive answer plus the
// may-alias residue as typed edges.
func (b *cpgBuilder) addAliasEdges(m *ir.Module, opts CPGOptions) {
	limit := opts.MaxAliasPairs
	if limit < 0 {
		return
	}
	if limit == 0 {
		limit = 24
	}
	chain := opts.Chain
	if chain == nil {
		chain = aa.DefaultChain(m)
	}
	mgr := aa.NewManager(m, chain...)
	for _, f := range m.Funcs {
		type access struct {
			in  *ir.Instr
			loc aa.MemLoc
		}
		var accs []access
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				switch in.Op {
				case ir.OpLoad:
					accs = append(accs, access{in, aa.LocOfLoad(in)})
				case ir.OpStore:
					accs = append(accs, access{in, aa.LocOfStore(in)})
				}
				if len(accs) >= limit {
					break
				}
			}
			if len(accs) >= limit {
				break
			}
		}
		q := &aa.QueryCtx{Pass: "cpg", Func: f}
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				res := mgr.Alias(accs[i].loc, accs[j].loc, q)
				b.edge(b.byValue[accs[i].in], b.byValue[accs[j].in], EdgeAlias,
					map[string]string{"result": res.String()})
			}
		}
	}
}

// addORAQLEdges attaches the campaign's verdicts: one edge per query
// record whose access instructions survive in the exported module,
// annotated with the requesting pass, the verdict, and (when history
// is supplied) the fleet-wide verdict frequency of the query's shape.
func (b *cpgBuilder) addORAQLEdges(opts CPGOptions) {
	for _, rec := range opts.Records {
		from := b.nodeOfLoc(rec.A)
		to := b.nodeOfLoc(rec.B)
		if from == "" || to == "" {
			continue
		}
		verdict := "pessimistic"
		if rec.Optimistic {
			verdict = "optimistic"
		}
		da, db := rec.LocDescriptions()
		qv := QueryVerdict{Pass: rec.Pass, A: da, B: db}
		attrs := map[string]string{
			"pass":    rec.Pass,
			"verdict": verdict,
			"index":   strconv.Itoa(rec.Index),
			"shape":   qv.Shape(),
		}
		if c, ok := opts.History[qv.Shape()]; ok {
			attrs["hist_opt"] = strconv.FormatInt(c.Optimistic, 10)
			attrs["hist_pess"] = strconv.FormatInt(c.Pessimistic, 10)
		}
		b.edge(from, to, EdgeORAQL, attrs)
	}
}

// nodeOfLoc resolves a query location to a CPG node: the access
// instruction when known, else the pointer's def site.
func (b *cpgBuilder) nodeOfLoc(l aa.MemLoc) string {
	if l.Instr != nil {
		if id, ok := b.byValue[l.Instr]; ok {
			return id
		}
	}
	if l.Ptr != nil {
		if id, ok := b.byValue[l.Ptr]; ok {
			return id
		}
	}
	return ""
}

func instrAttrs(in *ir.Instr) map[string]string {
	attrs := map[string]string{}
	if in.Name != "" {
		attrs["name"] = in.Name
	}
	if in.Callee != "" {
		attrs["callee"] = in.Callee
	}
	if in.TBAA != "" {
		attrs["tbaa"] = in.TBAA
	}
	if len(attrs) == 0 {
		return nil
	}
	return attrs
}

// CountByKind tallies nodes and edges per kind — the cheap sanity
// query every surface exposes.
func (g *Graph) CountByKind() (nodes, edges map[string]int) {
	nodes, edges = map[string]int{}, map[string]int{}
	for _, n := range g.Nodes {
		nodes[n.Kind]++
	}
	for _, e := range g.Edges {
		edges[e.Kind]++
	}
	return
}

// AliasEdges filters ALIAS edges by result ("no-alias", "may-alias",
// ...); empty result returns them all.
func (g *Graph) AliasEdges(result string) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.Kind != EdgeAlias {
			continue
		}
		if result != "" && e.Attrs["result"] != result {
			continue
		}
		out = append(out, e)
	}
	return out
}

// EdgeKinds lists the edge kinds present, sorted.
func (g *Graph) EdgeKinds() []string {
	set := map[string]bool{}
	for _, e := range g.Edges {
		set[e.Kind] = true
	}
	out := sortedSet(set)
	sort.Strings(out)
	return out
}

// MarshalGraph renders the deterministic JSON export (map attrs are
// emitted key-sorted by encoding/json, node/edge order is the build
// order), so equal modules yield equal bytes.
func MarshalGraph(g *Graph) ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}
