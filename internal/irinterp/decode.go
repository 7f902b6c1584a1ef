package irinterp

import (
	"maps"
	"slices"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// xop is a decoded operation. Scalar arithmetic, loads and stores get
// an op each, so the execution loop never re-inspects IR types.
type xop uint8

const (
	xUnhandled xop = iota
	xAlloca
	xLoad  // scalar integer or pointer
	xLoadF // f64
	xLoadV // vector
	xStore
	xStoreF
	xStoreV
	xGEP
	xMemCpy
	xMemSet
	xAdd
	xSub
	xMul
	xSDiv
	xSRem
	xAnd
	xOr
	xXor
	xShl
	xAShr
	xIntV // vector integer arithmetic; sub holds the opcode
	xFAdd
	xFSub
	xFMul
	xFDiv
	xFloatV // vector float arithmetic; sub holds the opcode
	xSIToFP
	xSIToFPV
	xFPToSI
	xFPToSIV
	xICmp
	xFCmp
	xSelect
	xVSplat
	xVExtract
	xVInsert
	xVReduce
	xCall // user function
	xIntrinsic
	xBr
	xRet
)

// okind says where an operand's value lives.
type okind uint8

const (
	oSlot  okind = iota // a frame slot, defined once its instruction ran
	oConst              // code.consts: constants and global addresses
	oArg                // the frame's argument idx
	// The remaining kinds trap when evaluated; idx indexes code.refs.
	oUndef         // an instruction that never runs in this function
	oUnknownGlobal // a global the machine did not lay out
	oBadKind       // not a value kind the interpreter knows
	oNoPhi         // a phi with no incoming value for this predecessor
)

type opnd struct {
	kind okind
	idx  int32
}

// dinstr is a decoded instruction.
type dinstr struct {
	op    xop
	sub   ir.Opcode // opcode of xIntV / xFloatV
	pred  ir.Pred
	flt   bool // vector lanes hold f64 (xStoreV, xVExtract, xVReduce)
	vret  bool // xRet: the returned value carries lanes
	lanes int  // vector lane count
	intr  intrinsic
	cost  int64
	dst   int32
	vdst  int32 // lane index of dst in frame.lanes, -1 for a scalar
	ops   []opnd
	imm   int64 // alloca size rounded to 16, or GEP offset
	scale int64 // GEP index scale
	in    *ir.Instr
	// succs are the branch targets; moves[k] lists the phi sources of
	// succs[k] when entered from this block.
	succs []int32
	moves [][]opnd
	// call numbers a user call site within its function; a machine
	// memoizes the site's resolved callee under it (dfunc.callees).
	call int32
}

type dblock struct {
	name  string
	phis  []int32  // slots of the live phis, in block order
	vphis bool     // some phi carries lanes
	body  []dinstr // up to and including the first terminator
}

// code is a function body decoded against one global layout. It is
// immutable once decoded, so the machines of many runs share it
// (CodeCache).
type code struct {
	fn     *ir.Func
	blocks []dblock // blocks[0] is the entry
	entry  []opnd   // phi sources of the entry block on function entry
	consts []value
	slots  []*ir.Instr // instruction of each slot, for messages
	refs   []ir.Value  // operands of the trapping kinds, for messages
	// Values that carry lanes get an index into frame.lanes: laneOf per
	// slot, argLane per parameter position (nil when no parameter is a
	// vector); -1 marks a scalar.
	laneOf  []int32
	argLane []int32
	nlanes  int
	ncalls  int // user call sites (dinstr.call)
}

// dfunc is a function as one machine runs it: a copy of its code's
// header, so the execution loop reaches the shared slices in one hop,
// and the machine's own state.
type dfunc struct {
	code
	// callees memoizes each user call site's resolved function by
	// kernel mode (device copies take precedence inside a kernel):
	// entry 2*call, or 2*call+1 inside a kernel.
	callees []*dfunc
	free    []*frame // frames of finished activations, for reuse
}

// CodeCache shares decoded function bodies between runs: a body is
// decoded once for every machine that uses the cache. Decoded code
// holds global addresses, so the cache serves only machines whose
// global layout equals that of the first machine that used it; any
// other machine decodes its own. The zero value is an empty cache; it
// is safe for concurrent use, and it keeps every body it decoded alive.
type CodeCache struct {
	mu     sync.Mutex
	layout map[*ir.Global]int64
	code   map[*ir.Func]*code
}

// fits reports whether the cache serves a machine with this global
// layout, adopting the layout when the cache has none yet.
func (c *CodeCache) fits(layout map[*ir.Global]int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.layout == nil {
		c.layout = layout
		return true
	}
	return maps.Equal(c.layout, layout)
}

// get returns fn's code, decoding it on first use.
func (c *CodeCache) get(fn *ir.Func) *code {
	c.mu.Lock()
	cd, layout := c.code[fn], c.layout
	c.mu.Unlock()
	if cd != nil {
		return cd
	}
	cd = decode(fn, layout)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.code[fn]; prev != nil {
		return prev
	}
	if c.code == nil {
		c.code = map[*ir.Func]*code{}
	}
	c.code[fn] = cd
	return cd
}

// frame is one function activation.
type frame struct {
	fn       *dfunc
	vals     []value
	def      []uint64 // bit per slot: the slot's instruction has run
	args     []value
	lanes    []lanes // lanes of the vector slots and parameters
	stackTop int64   // saved stack pointer for alloca unwinding
}

func (fr *frame) set(s int32, v value) {
	fr.vals[s] = v
	fr.def[s>>6] |= 1 << (s & 63)
}

func (fr *frame) defined(s int32) bool { return fr.def[s>>6]&(1<<(s&63)) != 0 }

// setVec defines in's slot as a vector: zero scalar words and lanes ln.
func (fr *frame) setVec(in *dinstr, ln *lanes) {
	fr.set(in.dst, value{})
	fr.lanes[in.vdst] = *ln
}

// acquire returns a frame with no slot defined.
func (df *dfunc) acquire() *frame {
	if n := len(df.free); n > 0 {
		fr := df.free[n-1]
		df.free = df.free[:n-1]
		clear(fr.def)
		return fr
	}
	return &frame{
		fn:    df,
		vals:  make([]value, len(df.slots)),
		def:   make([]uint64, (len(df.slots)+63)/64),
		lanes: make([]lanes, df.nlanes),
	}
}

func (df *dfunc) release(fr *frame) { df.free = append(df.free, fr) }

// decoded returns fn as this machine runs it, taking its code from the
// machine's code cache on first use.
func (m *machine) decoded(fn *ir.Func) *dfunc {
	if df := m.funcs[fn]; df != nil {
		return df
	}
	df := &dfunc{code: *m.code.get(fn)}
	if df.ncalls > 0 {
		df.callees = make([]*dfunc, 2*df.ncalls)
	}
	m.funcs[fn] = df
	return df
}

type decoder struct {
	globals map[*ir.Global]int64
	df      *code
	blocks  map[*ir.Block]int32
	slots   map[*ir.Instr]int32
}

// decode decodes fn against the global layout globals.
func decode(fn *ir.Func, globals map[*ir.Global]int64) *code {
	d := &decoder{globals: globals, df: &code{fn: fn}, blocks: map[*ir.Block]int32{}, slots: map[*ir.Instr]int32{}}
	// Number the blocks: the function's own, then any branch target
	// outside fn.Blocks, which still runs because the IR points at it.
	var order []*ir.Block
	add := func(b *ir.Block) {
		if _, ok := d.blocks[b]; !ok {
			d.blocks[b] = int32(len(order))
			order = append(order, b)
		}
	}
	for _, b := range fn.Blocks {
		add(b)
	}
	for i := 0; i < len(order); i++ {
		for _, in := range order[i].Instrs {
			if !in.Dead() && in.Op == ir.OpBr {
				for _, s := range in.Succs {
					add(s)
				}
			}
		}
	}
	df := d.df
	for _, b := range order {
		for _, in := range b.Instrs {
			if !in.Dead() {
				d.slots[in] = int32(len(df.slots))
				df.slots = append(df.slots, in)
				df.laneOf = append(df.laneOf, df.newLane(carriesLanes(in)))
			}
		}
	}
	isVec := func(p *ir.Arg) bool { return p.Ty.Kind == ir.KVec }
	if slices.ContainsFunc(fn.Params, isVec) {
		df.argLane = make([]int32, len(fn.Params))
		for k, p := range fn.Params {
			df.argLane[k] = df.newLane(isVec(p))
		}
	}
	df.blocks = make([]dblock, len(order))
	for i, b := range order {
		db := &df.blocks[i]
		db.name = b.Name
		for _, in := range b.Instrs {
			if !in.Dead() && in.Op == ir.OpPhi {
				db.phis = append(db.phis, d.slots[in])
				db.vphis = db.vphis || df.laneOf[d.slots[in]] >= 0
			}
		}
		db.body = make([]dinstr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			if in.Dead() || in.Op == ir.OpPhi {
				continue
			}
			db.body = append(db.body, d.instr(b, in))
			if in.IsTerminator() {
				break
			}
		}
	}
	d.df.entry = d.moves(nil, order[0])
	return d.df
}

// moves resolves, for each live phi of to, its incoming value from
// the predecessor from (nil on function entry).
func (d *decoder) moves(from, to *ir.Block) []opnd {
	var out []opnd
	for _, in := range to.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		src := opnd{kind: oNoPhi}
		for i, b := range in.Incoming {
			if b == from {
				src = d.operand(in.Operands[i])
				break
			}
		}
		out = append(out, src)
	}
	return out
}

// carriesLanes reports whether in's value is a vector with lanes of its
// own: the result of a vector operation, or a vector-typed phi, select
// or user call. Any other value reads as zero lanes.
func carriesLanes(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpVSplat, ir.OpVInsert:
		return true
	case ir.OpLoad, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpSIToFP, ir.OpFPToSI, ir.OpPhi, ir.OpSelect:
		return in.Ty.Kind == ir.KVec
	case ir.OpCall:
		return in.Ty.Kind == ir.KVec && !ir.IsIntrinsic(in.Callee)
	}
	return false
}

// newLane assigns the next lane index when vec holds, else -1.
func (df *code) newLane(vec bool) int32 {
	if !vec {
		return -1
	}
	df.nlanes++
	return int32(df.nlanes - 1)
}

// operandLanes reports whether operand o carries lanes.
func (df *code) operandLanes(o opnd) bool {
	switch o.kind {
	case oSlot:
		return df.laneOf[o.idx] >= 0
	case oArg:
		return int(o.idx) < len(df.argLane) && df.argLane[o.idx] >= 0
	}
	return false
}

func (d *decoder) ref(kind okind, v ir.Value) opnd {
	d.df.refs = append(d.df.refs, v)
	return opnd{kind: kind, idx: int32(len(d.df.refs) - 1)}
}

func (d *decoder) constant(v value) opnd {
	d.df.consts = append(d.df.consts, v)
	return opnd{kind: oConst, idx: int32(len(d.df.consts) - 1)}
}

func (d *decoder) operand(v ir.Value) opnd {
	switch x := v.(type) {
	case *ir.Const:
		if x.Ty == ir.F64 {
			return d.constant(fv(x.F))
		}
		return d.constant(iv(x.I))
	case *ir.Global:
		if a, ok := d.globals[x]; ok {
			return d.constant(iv(a))
		}
		return d.ref(oUnknownGlobal, x)
	case *ir.Arg:
		return opnd{kind: oArg, idx: int32(x.ID)}
	case *ir.Instr:
		if s, ok := d.slots[x]; ok {
			return opnd{kind: oSlot, idx: s}
		}
		return d.ref(oUndef, x)
	}
	return d.ref(oBadKind, v)
}

var intOps = map[ir.Opcode]xop{
	ir.OpAdd: xAdd, ir.OpSub: xSub, ir.OpMul: xMul, ir.OpSDiv: xSDiv, ir.OpSRem: xSRem,
	ir.OpAnd: xAnd, ir.OpOr: xOr, ir.OpXor: xXor, ir.OpShl: xShl, ir.OpAShr: xAShr,
}

var floatOps = map[ir.Opcode]xop{
	ir.OpFAdd: xFAdd, ir.OpFSub: xFSub, ir.OpFMul: xFMul, ir.OpFDiv: xFDiv,
}

// vecOp picks the scalar or vector form by the result type.
func vecOp(ty *ir.Type, scalar, vector xop) (xop, int) {
	if ty.Kind == ir.KVec {
		return vector, ty.Lanes
	}
	return scalar, 0
}

func (d *decoder) instr(b *ir.Block, in *ir.Instr) dinstr {
	x := dinstr{in: in, cost: cost(in), dst: d.slots[in], vdst: d.df.laneOf[d.slots[in]], pred: in.Pred}
	x.ops = make([]opnd, len(in.Operands))
	for i, v := range in.Operands {
		x.ops[i] = d.operand(v)
	}
	switch op := in.Op; op {
	case ir.OpAlloca:
		x.op, x.imm = xAlloca, (in.Size+15)&^15
	case ir.OpLoad:
		switch in.Ty.Kind {
		case ir.KVec:
			x.op, x.lanes = xLoadV, in.Ty.Lanes
		case ir.KF64:
			x.op = xLoadF
		default:
			x.op = xLoad
		}
	case ir.OpStore:
		switch ty := in.Operands[0].Type(); ty.Kind {
		case ir.KVec:
			x.op, x.lanes, x.flt = xStoreV, ty.Lanes, ty.Elem.Kind == ir.KF64
		case ir.KF64:
			x.op = xStoreF
		default:
			x.op = xStore
		}
	case ir.OpGEP:
		x.op, x.imm, x.scale = xGEP, in.Off, in.Scale
	case ir.OpMemCpy:
		x.op = xMemCpy
	case ir.OpMemSet:
		x.op = xMemSet
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpAShr:
		x.op, x.lanes = vecOp(in.Ty, intOps[op], xIntV)
		x.sub = op
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		x.op, x.lanes = vecOp(in.Ty, floatOps[op], xFloatV)
		x.sub = op
	case ir.OpSIToFP:
		x.op, x.lanes = vecOp(in.Ty, xSIToFP, xSIToFPV)
	case ir.OpFPToSI:
		x.op, x.lanes = vecOp(in.Ty, xFPToSI, xFPToSIV)
	case ir.OpICmp:
		x.op = xICmp
	case ir.OpFCmp:
		x.op = xFCmp
	case ir.OpSelect:
		x.op = xSelect
	case ir.OpVSplat:
		x.op, x.lanes = xVSplat, in.Ty.Lanes
	case ir.OpVExtract:
		vt := in.Operands[0].Type()
		x.op, x.lanes, x.flt = xVExtract, vt.Lanes, vt.Elem.Kind == ir.KF64
	case ir.OpVInsert:
		x.op, x.lanes = xVInsert, in.Ty.Lanes
	case ir.OpVReduce:
		vt := in.Operands[0].Type()
		x.op, x.lanes, x.flt = xVReduce, vt.Lanes, vt.Elem.Kind == ir.KF64
	case ir.OpCall:
		x.op = xCall
		if ir.IsIntrinsic(in.Callee) {
			x.op, x.intr = xIntrinsic, intrinsics[in.Callee]
		} else {
			x.call = int32(d.df.ncalls)
			d.df.ncalls++
		}
	case ir.OpBr:
		x.op = xBr
		for _, s := range in.Succs {
			x.succs = append(x.succs, d.blocks[s])
			x.moves = append(x.moves, d.moves(b, s))
		}
	case ir.OpRet:
		x.op = xRet
		x.vret = len(x.ops) > 0 && d.df.operandLanes(x.ops[0])
	}
	return x
}
