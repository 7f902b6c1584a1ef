package minic

import (
	"fmt"

	"github.com/oraql/go-oraql/internal/ir"
)

// Dialect selects the source-language flavour, which controls how
// arrays are addressed and whether strict-aliasing (TBAA) metadata is
// emitted — the paper's C/C++ versus Fortran axis.
type Dialect int

// Dialects.
const (
	// DialectC emits direct pointers and TBAA tags.
	DialectC Dialect = iota
	// DialectFortran boxes pointer parameters and heap arrays in
	// descriptors (an extra pointer load per access) and emits no TBAA,
	// modeling the LLVM-IR the fir-dev flang produced for TestSNAP.
	DialectFortran
)

// Model selects the parallel programming model lowering.
type Model int

// Models.
const (
	// ModelSeq lowers parallel constructs to plain sequential loops.
	ModelSeq Model = iota
	// ModelOpenMP outlines parallel-for bodies into functions taking a
	// context struct of captured-variable addresses (clang-style).
	ModelOpenMP
	// ModelTasks lowers parallel-for to explicit task chunks plus a
	// taskwait (the miniGMG "omptask" configuration).
	ModelTasks
	// ModelMPI is sequential lowering with the MPI builtins expected to
	// be used by the program (ranks come from the run options).
	ModelMPI
	// ModelOffload outlines parallel-for bodies and kernel functions
	// into a separate device module launched via __gpu_launch.
	ModelOffload
)

var modelNames = map[string]Model{
	"seq": ModelSeq, "openmp": ModelOpenMP, "tasks": ModelTasks,
	"mpi": ModelMPI, "offload": ModelOffload,
}

// ModelByName resolves the name every surface uses for a model: seq,
// openmp, tasks, mpi or offload.
func ModelByName(name string) (Model, bool) {
	m, ok := modelNames[name]
	return m, ok
}

// Options configures the frontend.
type Options struct {
	Dialect Dialect
	Model   Model
	// Views boxes heap arrays (new T[n]) in descriptors even in C
	// dialect, modeling Kokkos views / Thrust device_vectors.
	Views bool
	// NoStrictAliasing suppresses TBAA tags (implied by Fortran).
	NoStrictAliasing bool
	// TaskChunks is the number of task chunks under ModelTasks
	// (default 4).
	TaskChunks int
}

func (o Options) strictAliasing() bool {
	return !o.NoStrictAliasing && o.Dialect == DialectC
}

// Compile parses and lowers a source file. The device module is non-nil
// only for ModelOffload programs that contain kernels or parallel
// loops.
func Compile(name, src string, opts Options) (host, device *ir.Module, err error) {
	file, err := Parse(name, src)
	if err != nil {
		return nil, nil, err
	}
	return Lower(file, opts)
}

// Lower lowers a parsed file to IR.
func Lower(f *File, opts Options) (host, device *ir.Module, err error) {
	if opts.TaskChunks <= 0 {
		opts.TaskChunks = 4
	}
	lw := &lowerer{
		file: f, opts: opts,
		host:    ir.NewModule(f.Name),
		structs: map[string]*StructDecl{},
		funcs:   map[string]*FuncDecl{},
		globals: map[string]*globalInfo{},
	}
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(lowerError); ok {
				err = fmt.Errorf("%s", string(le))
				return
			}
			panic(r)
		}
	}()
	lw.run()
	if err := ir.Verify(lw.host); err != nil {
		return nil, nil, fmt.Errorf("minic: host module verification: %w", err)
	}
	if lw.device != nil {
		if err := ir.Verify(lw.device); err != nil {
			return nil, nil, fmt.Errorf("minic: device module verification: %w", err)
		}
	}
	return lw.host, lw.device, nil
}

type lowerError string

type globalInfo struct {
	g    *ir.Global
	ty   TypeExpr
	elem semType
	arr  bool
}

// lowerer holds translation-unit state.
type lowerer struct {
	file    *File
	opts    Options
	host    *ir.Module
	device  *ir.Module
	structs map[string]*StructDecl
	funcs   map[string]*FuncDecl
	globals map[string]*globalInfo

	outlineCount int
}

func (lw *lowerer) errf(pos Pos, format string, args ...any) {
	panic(lowerError(fmt.Sprintf("%s:%d:%d: %s", lw.file.Name, pos.Line, pos.Col, fmt.Sprintf(format, args...))))
}

// deviceModule materializes the device module on first use.
func (lw *lowerer) deviceModule() *ir.Module {
	if lw.device == nil {
		lw.device = ir.NewModule(lw.file.Name + ".device")
		lw.device.Target = "gpu-sim"
		lw.device.TBAA = lw.host.TBAA // shared tag tree
	}
	return lw.device
}

func (lw *lowerer) run() {
	for _, sd := range lw.file.Structs {
		lw.structs[sd.Name] = sd
	}
	for _, fd := range lw.file.Funcs {
		lw.funcs[fd.Name] = fd
	}
	for _, g := range lw.file.Globals {
		lw.lowerGlobal(g)
	}
	if lw.opts.Model == ModelOffload {
		lw.deviceModule()
	}
	for _, fd := range lw.file.Funcs {
		lw.lowerFunc(fd)
	}
}

// importGlobalToDevice makes a host global visible to device code by
// registering the same object in the device module (the simulated
// machine has unified memory, like a __device__ __managed__ global).
func (lw *lowerer) importGlobalToDevice(g *ir.Global) {
	dev := lw.deviceModule()
	for _, existing := range dev.Globals {
		if existing == g {
			return
		}
	}
	dev.Globals = append(dev.Globals, g) // keep the host-assigned ID
}

// containsParallelWork reports whether a function body contains
// parallel-for, task, or launch constructs; such functions stay
// host-only under offload models.
func containsParallelWork(b *Block) bool {
	found := false
	var walkStmt func(Stmt)
	var walkExpr func(*Expr)
	walkExpr = func(e *Expr) {
		if e == nil || found {
			return
		}
		if e.Kind == ELaunch {
			found = true
			return
		}
		walkExpr(e.X)
		walkExpr(e.Y)
		walkExpr(e.Z)
		walkExpr(e.N)
		for _, a := range e.Args {
			walkExpr(a)
		}
	}
	walkStmt = func(s Stmt) {
		if found {
			return
		}
		switch st := s.(type) {
		case *ParallelFor, *Task, *TaskWait:
			found = true
		case *Block:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *VarDecl:
			walkExpr(st.Len)
			walkExpr(st.Init)
		case *Assign:
			walkExpr(st.LHS)
			walkExpr(st.RHS)
		case *IncDec:
			walkExpr(st.LHS)
		case *ExprStmt:
			walkExpr(st.X)
		case *If:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *While:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *For:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			walkExpr(st.Cond)
			if st.Step != nil {
				walkStmt(st.Step)
			}
			walkStmt(st.Body)
		case *Return:
			walkExpr(st.X)
		}
	}
	walkStmt(b)
	return found
}

// semType is a resolved type: base + pointer depth.
type semType struct {
	base string
	ptr  int
}

func (t semType) isPtr() bool   { return t.ptr > 0 }
func (t semType) isInt() bool   { return t.ptr == 0 && t.base == "int" }
func (t semType) isFloat() bool { return t.ptr == 0 && t.base == "double" }
func (t semType) isVec() bool   { return t.ptr == 0 && t.base == "vec4" }
func (t semType) isVoid() bool  { return t.ptr == 0 && t.base == "void" }
func (t semType) isBool() bool  { return t.ptr == 0 && t.base == "bool" }
func (t semType) isStruct() bool {
	return t.ptr == 0 && !t.isInt() && !t.isFloat() && !t.isVec() && !t.isVoid() && !t.isBool()
}
func (t semType) deref() semType { return semType{base: t.base, ptr: t.ptr - 1} }

func (t semType) String() string {
	s := t.base
	for i := 0; i < t.ptr; i++ {
		s += "*"
	}
	return s
}

func (lw *lowerer) resolve(te TypeExpr) semType { return semType{base: te.Base, ptr: te.Ptr} }

// irType maps a semType to its IR value type.
func (lw *lowerer) irType(t semType) *ir.Type {
	switch {
	case t.isPtr():
		return ir.Ptr
	case t.isInt():
		return ir.I64
	case t.isFloat():
		return ir.F64
	case t.isVec():
		return ir.V4F64
	case t.isBool():
		return ir.I1
	case t.isVoid():
		return ir.Void
	}
	return ir.Ptr // struct values are manipulated by address
}

// sizeOf returns the byte size of a semType object (for GEP scales and
// allocations). All scalars are 8 bytes; structs are 8 bytes per field.
func (lw *lowerer) sizeOf(t semType) int64 {
	if t.isPtr() || t.isInt() || t.isFloat() {
		return 8
	}
	if t.isVec() {
		return 32
	}
	if sd, ok := lw.structs[t.base]; ok {
		return int64(8 * len(sd.Fields))
	}
	return 8
}

// tbaaFor returns the TBAA tag for an access of type t ("" when strict
// aliasing is off).
func (lw *lowerer) tbaaFor(t semType) string {
	if !lw.opts.strictAliasing() {
		return ""
	}
	switch {
	case t.isPtr():
		return "any pointer"
	case t.isInt():
		return "long"
	case t.isFloat():
		return "double"
	}
	return ""
}

func (lw *lowerer) lowerGlobal(gd *GlobalDecl) {
	ty := lw.resolve(gd.Type)
	size := lw.sizeOf(ty)
	arr := gd.Len > 0
	if arr {
		size = lw.sizeOf(ty) * gd.Len
	}
	g := &ir.Global{Name: gd.Name, Size: size, InitI64: gd.InitI, InitF64: gd.InitF}
	lw.host.AddGlobal(g)
	lw.globals[gd.Name] = &globalInfo{g: g, ty: gd.Type, elem: ty, arr: arr}
	if lw.device != nil || lw.opts.Model == ModelOffload {
		// Globals are shared: the device module references the same
		// *ir.Global objects through the host list; device code only
		// reads them via pointers passed in contexts, so no copy is
		// made here.
		_ = g
	}
}
