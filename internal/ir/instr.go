package ir

import (
	"fmt"
	"strconv"
)

// Opcode enumerates instruction operations.
type Opcode int

// Instruction opcodes. Arithmetic is split by domain (integer vs float)
// as in LLVM; vector forms reuse the scalar opcodes with vector types.
const (
	OpInvalid Opcode = iota

	// Memory.
	OpAlloca // operands: none; Size gives the allocation size in bytes
	OpLoad   // operands: ptr; Ty is the loaded type
	OpStore  // operands: val, ptr
	OpGEP    // operands: base [, index]; addr = base + index*Scale + Off
	OpMemCpy // operands: dst, src, len(bytes)
	OpMemSet // operands: dst, byteval(i64), len(bytes)

	// Integer arithmetic (i64).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr

	// Floating point arithmetic (f64 or vector).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Conversions.
	OpSIToFP // i64 -> f64
	OpFPToSI // f64 -> i64

	// Comparisons; Pred selects the predicate.
	OpICmp
	OpFCmp

	// Vector ops for the explicit-SIMD dialect.
	OpVSplat   // operands: scalar -> vector
	OpVExtract // operands: vector, lane(const) -> scalar
	OpVInsert  // operands: vector, scalar, lane(const) -> vector
	OpVReduce  // operands: vector -> scalar (sum of lanes)

	// Other value-producing instructions.
	OpSelect // operands: cond, iftrue, iffalse
	OpPhi    // operands parallel to Incoming blocks
	OpCall   // operands: args; Callee names a function or intrinsic

	// Terminators.
	OpBr  // operands: [cond]; Succs has 1 or 2 targets
	OpRet // operands: [value]
)

var opNames = [...]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpMemCpy: "memcpy", OpMemSet: "memset",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpVSplat: "vsplat", OpVExtract: "vextract", OpVInsert: "vinsert", OpVReduce: "vreduce",
	OpSelect: "select", OpPhi: "phi", OpCall: "call",
	OpBr: "br", OpRet: "ret",
}

// String returns the mnemonic of the opcode.
func (o Opcode) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Pred is a comparison predicate shared by icmp and fcmp.
type Pred int

// Comparison predicates.
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

var predNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the predicate mnemonic.
func (p Pred) String() string { return predNames[p] }

// SrcLoc is a source location attached to instructions by the frontend,
// mirroring LLVM debug locations. It lets ORAQL associate pessimistic
// queries with source lines (paper Fig. 3).
type SrcLoc struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the location was set.
func (l SrcLoc) IsValid() bool { return l.Line > 0 }

// String renders "file:line:col".
func (l SrcLoc) String() string {
	if !l.IsValid() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Col)
}

// Instr is a single IR instruction. A nil instruction is never valid.
type Instr struct {
	Op       Opcode
	Ty       *Type   // result type; Void for stores, terminators, etc.
	Operands []Value // use list, in operand order

	// GEP address arithmetic: addr = base + index*Scale + Off.
	Scale int64
	Off   int64

	// Alloca allocation size in bytes.
	Size int64

	// Comparison predicate for OpICmp/OpFCmp.
	Pred Pred

	// Call target: a module function name or a "__"-prefixed intrinsic.
	Callee string

	// Branch targets (1 for unconditional, 2 for conditional: then, else).
	Succs []*Block

	// Incoming blocks for OpPhi, parallel to Operands.
	Incoming []*Block

	// Access metadata for loads/stores.
	TBAA         string   // TBAA type tag; "" means untagged
	Scopes       []string // alias.scope membership
	NoAliasScope []string // declared not to alias accesses in these scopes

	// Loc is the source location, if known.
	Loc SrcLoc

	// Name is an optional human-readable name; the printer falls back
	// to %tID.
	Name string

	// ID is the stable per-function instruction number in creation order.
	ID int

	// Parent is the containing block.
	Parent *Block

	// dead marks instructions removed by a pass; compaction drops them.
	dead bool
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Ty }

// Ident implements Value.
func (in *Instr) Ident() string {
	if in.Name != "" {
		return "%" + in.Name
	}
	return "%t" + strconv.Itoa(in.ID)
}

// VID implements Value.
func (in *Instr) VID() int64 {
	f := 0
	if in.Parent != nil && in.Parent.Parent != nil {
		f = in.Parent.Parent.ID
	}
	return vidInstr | int64(f)<<20 | int64(in.ID)
}

// IsTerminator reports whether the instruction ends a block.
func (in *Instr) IsTerminator() bool { return in.Op == OpBr || in.Op == OpRet }

// Dead reports whether the instruction has been removed by a pass but
// not yet compacted out of its block.
func (in *Instr) Dead() bool { return in.dead }

// MarkDead removes the instruction logically; Block.Compact erases it.
func (in *Instr) MarkDead() { in.dead = true }

// AccessedLoad reports whether the instruction reads memory.
func (in *Instr) ReadsMemory() bool {
	switch in.Op {
	case OpLoad, OpMemCpy:
		return true
	case OpCall:
		return CalleeEffects(in.Callee).Reads
	}
	return false
}

// WritesMemory reports whether the instruction writes memory.
func (in *Instr) WritesMemory() bool {
	switch in.Op {
	case OpStore, OpMemCpy, OpMemSet:
		return true
	case OpCall:
		return CalleeEffects(in.Callee).Writes
	}
	return false
}

// Effects describes the memory behaviour of a call target.
type Effects struct {
	Reads  bool
	Writes bool
	// ArgMemOnly means the call accesses only memory reachable from its
	// pointer arguments (like LLVM's argmemonly); pure math intrinsics
	// are readnone.
	ArgMemOnly bool
}

// intrinsicEffects lists the built-in runtime functions known to the
// compiler and interpreter. Anything not listed (i.e. a user function)
// is treated as reading and writing arbitrary memory unless the module
// provides a Func with attributes saying otherwise.
var intrinsicEffects = map[string]Effects{
	"__print_i64":         {Reads: false, Writes: false},
	"__print_f64":         {Reads: false, Writes: false},
	"__print_str":         {Reads: false, Writes: false},
	"__sqrt":              {},
	"__fabs":              {},
	"__exp":               {},
	"__log":               {},
	"__sin":               {},
	"__cos":               {},
	"__pow":               {},
	"__min_i64":           {},
	"__max_i64":           {},
	"__min_f64":           {},
	"__max_f64":           {},
	"__malloc":            {Writes: true}, // returns fresh memory
	"__free":              {},
	"__omp_fork":          {Reads: true, Writes: true},
	"__omp_task":          {Reads: true, Writes: true},
	"__omp_taskwait":      {Reads: true, Writes: true},
	"__omp_thread_id":     {},
	"__omp_num_threads":   {},
	"__mpi_rank":          {},
	"__mpi_size":          {},
	"__mpi_sendrecv":      {Reads: true, Writes: true, ArgMemOnly: true},
	"__mpi_allreduce_f64": {},
	"__gpu_launch":        {Reads: true, Writes: true},
	"__gpu_tid":           {},
	"__gpu_ntid":          {},
	"__checksum_f64":      {Reads: true, ArgMemOnly: true},
	"__checksum_i64":      {Reads: true, ArgMemOnly: true},
	"__clock":             {},
}

// IsIntrinsic reports whether name denotes a built-in runtime function.
func IsIntrinsic(name string) bool {
	_, ok := intrinsicEffects[name]
	return ok
}

// CalleeEffects returns the memory effects of calling name. Unknown
// callees (user functions) conservatively read and write everything.
func CalleeEffects(name string) Effects {
	if e, ok := intrinsicEffects[name]; ok {
		return e
	}
	return Effects{Reads: true, Writes: true}
}
