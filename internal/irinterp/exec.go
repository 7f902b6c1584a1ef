package irinterp

import (
	"math"

	"github.com/oraql/go-oraql/internal/ir"
)

// callFunc runs fn with scalar args and returns its return value.
func (m *machine) callFunc(fn *ir.Func, args ...value) value {
	fr := m.decoded(fn).acquire()
	fr.args = append(fr.args[:0], args...)
	for _, l := range fr.fn.argLane {
		if l >= 0 {
			fr.lanes[l] = noLanes
		}
	}
	return m.invoke(fr)
}

// invoke runs a frame whose arguments are set, then unwinds its
// allocas and returns the frame for reuse.
func (m *machine) invoke(fr *frame) value {
	fr.stackTop = m.stackPtr
	out := m.exec(fr)
	m.stackPtr = fr.stackTop
	fr.fn.release(fr)
	return out
}

// exec runs the function body from its entry block.
func (m *machine) exec(fr *frame) value {
	df := fr.fn
	blk, moves := &df.blocks[0], df.entry
outer:
	for {
		if len(blk.phis) > 0 {
			m.phis(fr, blk, moves)
		}
		for i := range blk.body {
			in := &blk.body[i]
			m.tick(in.cost)
			switch in.op {
			case xBr:
				k := 0
				if len(in.succs) == 2 && m.evalI(fr, in.ops[0]) == 0 {
					k = 1
				}
				blk, moves = &df.blocks[in.succs[k]], in.moves[k]
				continue outer
			case xRet:
				m.retVec = in.vret
				if len(in.ops) > 0 {
					v := *m.ref(fr, in.ops[0])
					if in.vret {
						m.retLanes = *m.vec(fr, in.ops[0])
					}
					return v
				}
				return value{}

			case xAlloca:
				addr := m.stackPtr
				m.checkAddr(addr, in.imm)
				// Zero the slot: allocas start deterministic (the
				// frontend always initializes, but optimized code must
				// not observe garbage either).
				m.memset(addr, in.imm, 0)
				m.stackPtr += in.imm
				fr.set(in.dst, iv(addr))
			case xLoad:
				fr.set(in.dst, iv(int64(m.load64(m.evalI(fr, in.ops[0])))))
			case xLoadF:
				fr.set(in.dst, fv(math.Float64frombits(m.load64(m.evalI(fr, in.ops[0])))))
			case xLoadV:
				addr := m.evalI(fr, in.ops[0])
				var out lanes
				for l := 0; l < in.lanes; l++ {
					bits := m.load64(addr + int64(8*l))
					out.vi[l] = int64(bits)
					out.vf[l] = math.Float64frombits(bits)
				}
				fr.setVec(in, &out)
			case xStore:
				val := m.evalI(fr, in.ops[0])
				m.store64(m.evalI(fr, in.ops[1]), uint64(val))
			case xStoreF:
				val := m.evalF(fr, in.ops[0])
				m.store64(m.evalI(fr, in.ops[1]), math.Float64bits(val))
			case xStoreV:
				val := *m.vec(fr, in.ops[0])
				addr := m.evalI(fr, in.ops[1])
				for l := 0; l < in.lanes; l++ {
					if in.flt {
						m.store64(addr+int64(8*l), math.Float64bits(val.vf[l]))
					} else {
						m.store64(addr+int64(8*l), uint64(val.vi[l]))
					}
				}
			case xGEP:
				addr := m.evalI(fr, in.ops[0]) + in.imm
				if len(in.ops) > 1 {
					addr += m.evalI(fr, in.ops[1]) * in.scale
				}
				fr.set(in.dst, iv(addr))
			case xMemCpy:
				dst := m.evalI(fr, in.ops[0])
				src := m.evalI(fr, in.ops[1])
				n := m.evalI(fr, in.ops[2])
				if n < 0 {
					m.trap("memcpy with negative length %d", n)
				}
				m.checkAddr(dst, n)
				m.checkAddr(src, n)
				m.memmove(dst, src, n)
			case xMemSet:
				dst := m.evalI(fr, in.ops[0])
				b := byte(m.evalI(fr, in.ops[1]))
				n := m.evalI(fr, in.ops[2])
				if n < 0 {
					m.trap("memset with negative length %d", n)
				}
				m.checkAddr(dst, n)
				m.memset(dst, n, b)

			case xAdd:
				fr.set(in.dst, iv(m.evalI(fr, in.ops[0])+m.evalI(fr, in.ops[1])))
			case xSub:
				fr.set(in.dst, iv(m.evalI(fr, in.ops[0])-m.evalI(fr, in.ops[1])))
			case xMul:
				fr.set(in.dst, iv(m.evalI(fr, in.ops[0])*m.evalI(fr, in.ops[1])))
			case xSDiv, xSRem, xAnd, xOr, xXor, xShl, xAShr:
				x, y := m.evalI(fr, in.ops[0]), m.evalI(fr, in.ops[1])
				fr.set(in.dst, iv(m.intOp(in.sub, x, y)))
			case xIntV:
				x, y := m.vec(fr, in.ops[0]).vi, m.vec(fr, in.ops[1]).vi
				var out lanes
				for l := 0; l < in.lanes; l++ {
					out.vi[l] = m.intOp(in.sub, x[l], y[l])
				}
				fr.setVec(in, &out)
			case xFAdd:
				fr.set(in.dst, fv(m.evalF(fr, in.ops[0])+m.evalF(fr, in.ops[1])))
			case xFSub:
				fr.set(in.dst, fv(m.evalF(fr, in.ops[0])-m.evalF(fr, in.ops[1])))
			case xFMul:
				fr.set(in.dst, fv(m.evalF(fr, in.ops[0])*m.evalF(fr, in.ops[1])))
			case xFDiv:
				fr.set(in.dst, fv(m.evalF(fr, in.ops[0])/m.evalF(fr, in.ops[1])))
			case xFloatV:
				x, y := m.vec(fr, in.ops[0]).vf, m.vec(fr, in.ops[1]).vf
				var out lanes
				for l := 0; l < in.lanes; l++ {
					out.vf[l] = floatOp(in.sub, x[l], y[l])
				}
				fr.setVec(in, &out)

			case xSIToFP:
				fr.set(in.dst, fv(float64(m.evalI(fr, in.ops[0]))))
			case xSIToFPV:
				x := m.vec(fr, in.ops[0]).vi
				var out lanes
				for l := 0; l < in.lanes; l++ {
					out.vf[l] = float64(x[l])
				}
				fr.setVec(in, &out)
			case xFPToSI:
				fr.set(in.dst, iv(int64(m.evalF(fr, in.ops[0]))))
			case xFPToSIV:
				x := m.vec(fr, in.ops[0]).vf
				var out lanes
				for l := 0; l < in.lanes; l++ {
					out.vi[l] = int64(x[l])
				}
				fr.setVec(in, &out)

			case xICmp:
				x, y := m.evalI(fr, in.ops[0]), m.evalI(fr, in.ops[1])
				fr.set(in.dst, iv(b2i(cmpInt(in.pred, x, y))))
			case xFCmp:
				x, y := m.evalF(fr, in.ops[0]), m.evalF(fr, in.ops[1])
				fr.set(in.dst, iv(b2i(cmpFloat(in.pred, x, y))))
			case xSelect:
				pick := 2
				if m.evalI(fr, in.ops[0]) != 0 {
					pick = 1
				}
				fr.set(in.dst, *m.ref(fr, in.ops[pick]))
				if in.vdst >= 0 {
					fr.lanes[in.vdst] = *m.vec(fr, in.ops[pick])
				}

			case xVSplat:
				x := m.ref(fr, in.ops[0])
				var out lanes
				for l := 0; l < in.lanes; l++ {
					out.vi[l] = x.i
					out.vf[l] = x.f
				}
				fr.setVec(in, &out)
			case xVExtract:
				x := m.vec(fr, in.ops[0])
				lane := m.evalI(fr, in.ops[1])
				if lane < 0 || int(lane) >= in.lanes {
					m.trap("vector lane %d out of range", lane)
				}
				if in.flt {
					fr.set(in.dst, fv(x.vf[lane]))
				} else {
					fr.set(in.dst, iv(x.vi[lane]))
				}
			case xVInsert:
				x := *m.ref(fr, in.ops[0])
				out := *m.vec(fr, in.ops[0])
				s := m.ref(fr, in.ops[1])
				lane := m.evalI(fr, in.ops[2])
				if lane < 0 || int(lane) >= in.lanes {
					m.trap("vector lane %d out of range", lane)
				}
				out.vi[lane] = s.i
				out.vf[lane] = s.f
				fr.set(in.dst, x)
				fr.lanes[in.vdst] = out
			case xVReduce:
				x := m.vec(fr, in.ops[0])
				if in.flt {
					var sum float64
					for l := 0; l < in.lanes; l++ {
						sum += x.vf[l]
					}
					fr.set(in.dst, fv(sum))
				} else {
					var sum int64
					for l := 0; l < in.lanes; l++ {
						sum += x.vi[l]
					}
					fr.set(in.dst, iv(sum))
				}

			case xCall:
				cf := m.callee(df, in).acquire()
				cf.args = cf.args[:0]
				for _, o := range in.ops {
					cf.args = append(cf.args, *m.ref(fr, o))
				}
				for k, l := range cf.fn.argLane {
					if l >= 0 && k < len(in.ops) {
						cf.lanes[l] = *m.vec(fr, in.ops[k])
					}
				}
				fr.set(in.dst, m.invoke(cf))
				if in.vdst >= 0 {
					ret := &noLanes
					if m.retVec {
						ret = &m.retLanes
					}
					fr.lanes[in.vdst] = *ret
				}
			case xIntrinsic:
				fr.set(in.dst, m.intrinsic(fr, in))

			default:
				m.trap("unhandled opcode %s", in.in.Op)
			}
		}
		// Every terminator leaves the loop above.
		m.trap("block %s/%s fell through without terminator", df.fn.Name, blk.name)
	}
}

// phis assigns the block's phis in parallel from the incoming edge.
func (m *machine) phis(fr *frame, blk *dblock, moves []opnd) {
	tmp := m.phiTmp[:0]
	for _, src := range moves {
		if src.kind == oNoPhi {
			m.trap("phi in %s/%s has no incoming for predecessor", fr.fn.fn.Name, blk.name)
		}
		tmp = append(tmp, *m.ref(fr, src))
	}
	m.phiTmp = tmp
	if blk.vphis {
		m.vecPhis(fr, blk, moves)
		return
	}
	for j, s := range blk.phis {
		fr.set(s, tmp[j])
		m.tick(0)
	}
}

// vecPhis is the rest of phis for a block where some phi carries
// lanes: those lanes are read, like the words, before any phi is set.
func (m *machine) vecPhis(fr *frame, blk *dblock, moves []opnd) {
	laneOf := fr.fn.laneOf
	vtmp := m.phiLanes[:0]
	for j, s := range blk.phis {
		if laneOf[s] >= 0 {
			vtmp = append(vtmp, *m.vec(fr, moves[j]))
		}
	}
	m.phiLanes = vtmp
	for j, s := range blk.phis {
		fr.set(s, m.phiTmp[j])
		if l := laneOf[s]; l >= 0 {
			fr.lanes[l] = vtmp[0]
			vtmp = vtmp[1:]
		}
		m.tick(0)
	}
}

// ref resolves an operand to its runtime value; the result must not be
// written through.
func (m *machine) ref(fr *frame, o opnd) *value {
	df := fr.fn
	switch o.kind {
	case oSlot:
		if !fr.defined(o.idx) {
			m.trap("use of undefined value %s in %s", df.slots[o.idx].Ident(), df.fn.Name)
		}
		return &fr.vals[o.idx]
	case oConst:
		return &df.consts[o.idx]
	case oArg:
		if int(o.idx) >= len(fr.args) {
			m.trap("missing argument %d of %s", o.idx, df.fn.Name)
		}
		return &fr.args[o.idx]
	case oUndef:
		m.trap("use of undefined value %s in %s", df.refs[o.idx].Ident(), df.fn.Name)
	case oUnknownGlobal:
		m.trap("unknown global %s", df.refs[o.idx].(*ir.Global).Name)
	}
	m.trap("unknown value kind %T", df.refs[o.idx])
	return nil
}

// vec resolves an operand to its lanes for a vector read; a value that
// carries none reads as zero lanes. The result must not be written
// through.
func (m *machine) vec(fr *frame, o opnd) *lanes {
	df := fr.fn
	switch o.kind {
	case oSlot:
		if l := df.laneOf[o.idx]; l >= 0 && fr.defined(o.idx) {
			return &fr.lanes[l]
		}
	case oArg:
		if int(o.idx) < len(df.argLane) && int(o.idx) < len(fr.args) {
			if l := df.argLane[o.idx]; l >= 0 {
				return &fr.lanes[l]
			}
		}
	}
	m.ref(fr, o) // traps where a scalar read would
	return &noLanes
}

// evalI is ref(...).i with the common cases inline.
func (m *machine) evalI(fr *frame, o opnd) int64 {
	switch {
	case o.kind == oSlot && fr.defined(o.idx):
		return fr.vals[o.idx].i
	case o.kind == oConst:
		return fr.fn.consts[o.idx].i
	}
	return m.ref(fr, o).i
}

// evalF is ref(...).f with the common cases inline.
func (m *machine) evalF(fr *frame, o opnd) float64 {
	switch {
	case o.kind == oSlot && fr.defined(o.idx):
		return fr.vals[o.idx].f
	case o.kind == oConst:
		return fr.fn.consts[o.idx].f
	}
	return m.ref(fr, o).f
}

func (m *machine) intOp(op ir.Opcode, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpSDiv:
		if b == 0 {
			m.trap("integer division by zero")
		}
		return a / b
	case ir.OpSRem:
		if b == 0 {
			m.trap("integer remainder by zero")
		}
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << uint(b&63)
	case ir.OpAShr:
		return a >> uint(b&63)
	}
	m.trap("bad int op")
	return 0
}

func floatOp(op ir.Opcode, a, b float64) float64 {
	switch op {
	case ir.OpFAdd:
		return a + b
	case ir.OpFSub:
		return a - b
	case ir.OpFMul:
		return a * b
	}
	return a / b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(p ir.Pred, x, y int64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}

func cmpFloat(p ir.Pred, x, y float64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	case ir.PredGE:
		return x >= y
	}
	return false
}
