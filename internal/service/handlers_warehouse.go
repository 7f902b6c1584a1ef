package service

import (
	"context"
	"net/http"

	"github.com/oraql/go-oraql/internal/pipeline"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// Warehouse endpoints: synchronous forensics over the corpus every
// probe, fuzz, and triage campaign files into the server's shared
// persistent store. GET serves corpus stats; POST dispatches one op
// (stats | query | export). All ops are read-only over an immutable
// record set, so they run inline on the request goroutine rather than
// through the job queue — only the export op compiles, and that goes
// through the same cache hierarchy as /v1/compile.

func (s *Server) handleWarehouseGet(w http.ResponseWriter, r *http.Request) {
	s.warehouseOp(w, r, &WarehouseRequest{Op: "stats"})
}

func (s *Server) handleWarehousePost(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req WarehouseRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	s.warehouseOp(w, r, &req)
}

func (s *Server) warehouseOp(w http.ResponseWriter, r *http.Request, req *WarehouseRequest) {
	wh := warehouse.Open(s.cfg.Cache)
	if wh == nil {
		writeError(w, http.StatusServiceUnavailable, "warehouse requires a persistent store (start with -cache-dir)")
		return
	}
	op := req.Op
	if op == "" {
		op = "stats"
	}
	man := wh.Load()
	var result any
	switch op {
	case "stats":
		result = man.Stats()
	case "query":
		result = man.Query(warehouse.QueryOptions{
			Kind: req.Kind, App: req.App, Grammar: req.Grammar, By: req.By,
		})
	case "export":
		g, err := s.warehouseExport(r.Context(), req, man)
		if err != nil {
			writeError(w, compileStatus(err), "%v", err)
			return
		}
		result = g
	default:
		writeError(w, http.StatusBadRequest, "unknown warehouse op %q (stats, query, export)", req.Op)
		return
	}
	payload, err := marshalResult(result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.met.observeWarehouse(op)
	writeJSON(w, http.StatusOK, &WarehouseResponse{Op: op, Records: man.Len(), Result: payload})
}

// warehouseExport compiles the requested program and exports its host
// module as a code property graph annotated with the corpus's
// cross-campaign verdict history. The compilation reuses the server's
// compile tuning (worker budget, shared store) so the graph bytes are
// identical to what the oraql CLI exports for the same corpus.
func (s *Server) warehouseExport(ctx context.Context, req *WarehouseRequest, man *warehouse.Manifest) (*warehouse.Graph, error) {
	cfg, err := (&CompileRequest{Program: req.Program}).Config()
	if err != nil {
		return nil, badRequest{err}
	}
	cfg.DiskCache = s.cfg.Cache
	cctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	cr, err := pipeline.CompileContext(cctx, cfg)
	if err != nil {
		return nil, err
	}
	s.observeCompileResult(cr)
	return warehouse.ExportCPG(cr.Host.Module, warehouse.CPGOptions{
		Records:       cr.Records(),
		History:       man.ShapePriors(),
		MaxAliasPairs: req.AliasPairs,
	}), nil
}
