package irinterp

import (
	"maps"
	"math"
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
	// oVal reads frame.vals[idx]: a slot the decoder proved defined on
	// every path to the read, or, past the slots, a constant or global
	// address.
	oVal     okind = iota
	oChecked       // a slot the decoder could not prove defined: tested against frame.def
	oArg           // the frame's argument idx
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

// charge is what a straight-line segment adds to the step and cycle
// counters: n instructions (phis included) costing cycles.
type charge struct{ n, cycles int32 }

// dinstr is a decoded instruction. The execution loop walks arrays of
// them, so fields are narrowed and ordered to keep it small, and what
// only branches need lives in code.branches.
type dinstr struct {
	op    xop
	sub   xop   // scalar op of xIntV / xFloatV
	pred  uint8 // ir.Pred of xICmp / xFCmp
	intr  intrinsic
	flt   bool  // vector lanes hold f64 (xStoreV, xVExtract, xVReduce)
	vret  bool  // xRet: the returned value carries lanes
	cost  int32 // cycles
	dst   int32
	vdst  int32 // lane index of dst in frame.lanes, -1 for a scalar
	lanes int32 // vector lane count
	// call numbers a user call site within its function; a machine
	// memoizes the site's resolved callee under it (dfunc.callees).
	call  int32
	br    int32 // xBr: index into code.branches
	a, b  opnd  // the first two operands
	ops   []opnd
	imm   int64 // alloca size rounded to 16, or GEP offset
	scale int64 // GEP index scale
	in    *ir.Instr
	// next is, on a call or intrinsic, the charge of the segment after
	// it (dblock.head).
	next charge
}

// branch is a decoded br: its targets, and for each target the phi
// moves to make when it is entered from the branch's block.
type branch struct {
	succs []int32
	moves []moves
}

// moves are the sources of a block's live phis, in block order, when
// it is entered from one predecessor.
type moves struct {
	src []opnd
	// temp says some source is a phi of the same block that an earlier
	// move assigns, so every source must be read before any is set.
	temp bool
}

type dblock struct {
	name  string
	phis  []int32  // slots of the live phis, in block order
	vphis bool     // some phi carries lanes
	body  []dinstr // up to and including the first terminator
	// head charges the block's first segment: its phis and its body up
	// to and including the first call or intrinsic. Each call and
	// intrinsic carries the charge of the segment after it (next), so
	// a callee, a kernel launch or __clock sees the counters exactly
	// as instruction-by-instruction ticking would leave them.
	head charge
}

// code is a function body decoded against one global layout. It is
// immutable once decoded, so the machines of many runs share it
// (CodeCache).
type code struct {
	fn       *ir.Func
	blocks   []dblock // blocks[0] is the entry
	branches []branch
	entry    moves       // phi moves of the entry block on function entry
	consts   []value     // constants and global addresses: frame.vals past the slots
	slots    []*ir.Instr // instruction of each slot, for messages
	refs     []ir.Value  // operands of the trapping kinds, for messages
	// checked says some read is oChecked, so frames keep defined bits.
	checked bool
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
	fn *dfunc
	// vals holds the slots, then the code's constants, which are copied
	// in when the frame is allocated and kept while it is reused.
	vals     []value
	def      []uint64 // bit per slot: the slot's instruction has run; nil unless code.checked
	args     []value
	lanes    []lanes // lanes of the vector slots and parameters
	stackTop int64   // saved stack pointer for alloca unwinding
}

func (fr *frame) set(s int32, v value) {
	fr.vals[s] = v
	if fr.def != nil {
		fr.def[s>>6] |= 1 << (s & 63)
	}
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
	fr := &frame{
		fn:    df,
		vals:  make([]value, len(df.slots)+len(df.consts)),
		lanes: make([]lanes, df.nlanes),
	}
	copy(fr.vals[len(df.slots):], df.consts)
	if df.checked {
		fr.def = make([]uint64, (len(df.slots)+63)/64)
	}
	return fr
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
	missing opnd // what an absent first or second operand reads
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
	df.branches = make([]branch, 0, len(order))
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
		c := &db.head
		c.n = int32(len(db.phis))
		for k := range db.body {
			x := &db.body[k]
			c.n++
			c.cycles += x.cost
			if x.op == xCall || x.op == xIntrinsic {
				c = &x.next
			}
		}
	}
	df.entry = d.moves(nil, order[0])
	df.prove()
	for i := range df.blocks {
		for k := range df.blocks[i].body {
			x := &df.blocks[i].body[k]
			x.a, x.b = d.nth(x.ops, 0), d.nth(x.ops, 1)
		}
	}
	return df
}

// nth returns operand k, or one that traps when there are fewer.
func (d *decoder) nth(ops []opnd, k int) opnd {
	if k < len(ops) {
		return ops[k]
	}
	if d.missing == (opnd{}) {
		d.missing = d.ref(oBadKind, nil)
	}
	return d.missing
}

// defines reports whether executing an instruction of op sets its slot.
func defines(op xop) bool {
	switch op {
	case xUnhandled, xStore, xStoreF, xStoreV, xMemCpy, xMemSet, xBr, xRet:
		return false
	}
	return true
}

// proveScratch recycles the dataflow's bit sets between decodes.
var proveScratch = sync.Pool{New: func() any { return new([]uint64) }}

// prove turns every slot read that the decoded blocks run only after
// the slot's instruction, on every path from the entry, from oChecked
// into oVal, by a must-defined dataflow: a block's entry set is the
// intersection of its predecessors' exit sets (the entry block starts
// with nothing), and its exit set adds its phis and every instruction
// that defines a slot. Phi sources are read at the predecessor's exit.
// ir.Verify's dominance check makes every read of verified IR
// provable; a read left checked keeps the defined-bit test and its
// trap, and a body with none keeps no defined bits.
func (df *code) prove() {
	words := (len(df.slots) + 63) / 64
	if words == 0 {
		return
	}
	nb := len(df.blocks)
	sp := proveScratch.Get().(*[]uint64)
	defer proveScratch.Put(sp)
	if cap(*sp) < (2*nb+1)*words {
		*sp = make([]uint64, (2*nb+1)*words)
	}
	buf := (*sp)[:(2*nb+1)*words]
	in, gen, cur := buf[:nb*words], buf[nb*words:2*nb*words], buf[2*nb*words:]
	row := func(sets []uint64, b int) []uint64 { return sets[b*words : (b+1)*words] }
	set := func(bits []uint64, s int32) { bits[s>>6] |= 1 << (s & 63) }
	clear(gen)
	for b := range df.blocks {
		blk, g := &df.blocks[b], row(gen, b)
		for _, s := range blk.phis {
			set(g, s)
		}
		for k := range blk.body {
			if x := &blk.body[k]; defines(x.op) {
				set(g, x.dst)
			}
		}
	}
	// Blocks not reached yet start full; the sets only shrink.
	clear(row(in, 0))
	for i := words; i < len(in); i++ {
		in[i] = ^uint64(0)
	}
	for changed := true; changed; {
		changed = false
		for b := range df.blocks {
			blk := &df.blocks[b]
			if len(blk.body) == 0 || blk.body[len(blk.body)-1].op != xBr {
				continue
			}
			ib, g := row(in, b), row(gen, b)
			for _, s := range df.branches[blk.body[len(blk.body)-1].br].succs {
				is := row(in, int(s))
				for w := range is {
					if v := is[w] & (ib[w] | g[w]); v != is[w] {
						is[w], changed = v, true
					}
				}
			}
		}
	}
	proveAll := func(ops []opnd) {
		for k, o := range ops {
			if o.kind == oChecked {
				if cur[o.idx>>6]&(1<<(o.idx&63)) != 0 {
					ops[k].kind = oVal
				} else {
					df.checked = true
				}
			}
		}
	}
	proveAll(df.entry.src) // nothing is defined on function entry
	for b := range df.blocks {
		blk := &df.blocks[b]
		copy(cur, row(in, b))
		for _, s := range blk.phis {
			set(cur, s)
		}
		for k := range blk.body {
			x := &blk.body[k]
			proveAll(x.ops)
			if defines(x.op) {
				set(cur, x.dst)
			}
			if x.op == xBr {
				for _, mv := range df.branches[x.br].moves {
					proveAll(mv.src)
				}
			}
		}
	}
}

// moves resolves, for each live phi of to, its incoming value from
// the predecessor from (nil on function entry).
func (d *decoder) moves(from, to *ir.Block) moves {
	var mv moves
	for j, in := range to.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		src := opnd{kind: oNoPhi}
		for i, b := range in.Incoming {
			if b == from {
				v := in.Operands[i]
				src = d.operand(v)
				for _, prev := range to.Instrs[:j] {
					mv.temp = mv.temp || v == ir.Value(prev) && !prev.Dead() && prev.Op == ir.OpPhi
				}
				break
			}
		}
		mv.src = append(mv.src, src)
	}
	return mv
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
	case oVal, oChecked:
		return int(o.idx) < len(df.laneOf) && df.laneOf[o.idx] >= 0
	case oArg:
		return int(o.idx) < len(df.argLane) && df.argLane[o.idx] >= 0
	}
	return false
}

func (d *decoder) ref(kind okind, v ir.Value) opnd {
	d.df.refs = append(d.df.refs, v)
	return opnd{kind: kind, idx: int32(len(d.df.refs) - 1)}
}

// constant returns the operand that reads v. A body keeps each
// distinct constant and global address once, matched by bit pattern,
// so -0.0, 0.0 and NaN payloads stay distinct.
func (d *decoder) constant(v value) opnd {
	base := len(d.df.slots)
	for i, c := range d.df.consts {
		if c.i == v.i && math.Float64bits(c.f) == math.Float64bits(v.f) {
			return opnd{kind: oVal, idx: int32(base + i)}
		}
	}
	d.df.consts = append(d.df.consts, v)
	return opnd{kind: oVal, idx: int32(base + len(d.df.consts) - 1)}
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
			return opnd{kind: oChecked, idx: s} // until prove
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
func vecOp(ty *ir.Type, scalar, vector xop) (xop, int32) {
	if ty.Kind == ir.KVec {
		return vector, int32(ty.Lanes)
	}
	return scalar, 0
}

func (d *decoder) instr(b *ir.Block, in *ir.Instr) dinstr {
	x := dinstr{in: in, cost: int32(cost(in)), dst: d.slots[in], vdst: d.df.laneOf[d.slots[in]], pred: uint8(in.Pred)}
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
			x.op, x.lanes = xLoadV, int32(in.Ty.Lanes)
		case ir.KF64:
			x.op = xLoadF
		default:
			x.op = xLoad
		}
	case ir.OpStore:
		switch ty := in.Operands[0].Type(); ty.Kind {
		case ir.KVec:
			x.op, x.lanes, x.flt = xStoreV, int32(ty.Lanes), ty.Elem.Kind == ir.KF64
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
		x.sub = intOps[op]
		x.op, x.lanes = vecOp(in.Ty, x.sub, xIntV)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		x.sub = floatOps[op]
		x.op, x.lanes = vecOp(in.Ty, x.sub, xFloatV)
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
		x.op, x.lanes = xVSplat, int32(in.Ty.Lanes)
	case ir.OpVExtract:
		vt := in.Operands[0].Type()
		x.op, x.lanes, x.flt = xVExtract, int32(vt.Lanes), vt.Elem.Kind == ir.KF64
	case ir.OpVInsert:
		x.op, x.lanes = xVInsert, int32(in.Ty.Lanes)
	case ir.OpVReduce:
		vt := in.Operands[0].Type()
		x.op, x.lanes, x.flt = xVReduce, int32(vt.Lanes), vt.Elem.Kind == ir.KF64
	case ir.OpCall:
		x.op = xCall
		if ir.IsIntrinsic(in.Callee) {
			x.op, x.intr = xIntrinsic, intrinsics[in.Callee]
		} else {
			x.call = int32(d.df.ncalls)
			d.df.ncalls++
		}
	case ir.OpBr:
		x.op, x.br = xBr, int32(len(d.df.branches))
		var br branch
		for _, s := range in.Succs {
			br.succs = append(br.succs, d.blocks[s])
			br.moves = append(br.moves, d.moves(b, s))
		}
		d.df.branches = append(d.df.branches, br)
	case ir.OpRet:
		x.op = xRet
		x.vret = len(x.ops) > 0 && d.df.operandLanes(x.ops[0])
	}
	return x
}
