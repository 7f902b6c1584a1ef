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

// exec runs the function body from its entry block. Counters are
// charged per segment (dblock.head, dinstr.next); a segment that would
// cross the step limit is ticked instruction by instruction instead,
// and always ends in a trap.
func (m *machine) exec(fr *frame) value {
	df := fr.fn
	blk, moves := &df.blocks[0], &df.entry
outer:
	for {
		slow := !m.charge(blk.head)
		if len(blk.phis) > 0 {
			m.phis(fr, blk, moves, slow)
		}
		for i := range blk.body {
			in := &blk.body[i]
			if slow {
				m.tick(in.cost)
			}
			switch in.op {
			case xBr:
				br, k := &df.branches[in.br], 0
				if len(br.succs) == 2 && m.evalI(fr, in.a) == 0 {
					k = 1
				}
				blk, moves = &df.blocks[br.succs[k]], &br.moves[k]
				continue outer
			case xRet:
				m.retVec = in.vret
				if len(in.ops) > 0 {
					v := m.val(fr, in.a)
					if in.vret {
						m.retLanes = *m.vec(fr, in.a)
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
				fr.set(in.dst, iv(int64(m.load64(m.evalI(fr, in.a)))))
			case xLoadF:
				fr.set(in.dst, fv(math.Float64frombits(m.load64(m.evalI(fr, in.a)))))
			case xLoadV:
				addr := m.evalI(fr, in.a)
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					bits := m.load64(addr + int64(8*l))
					out.vi[l] = int64(bits)
					out.vf[l] = math.Float64frombits(bits)
				}
				fr.setVec(in, &out)
			case xStore:
				val := m.evalI(fr, in.a)
				m.store64(m.evalI(fr, in.b), uint64(val))
			case xStoreF:
				val := m.evalF(fr, in.a)
				m.store64(m.evalI(fr, in.b), math.Float64bits(val))
			case xStoreV:
				val := *m.vec(fr, in.a)
				addr := m.evalI(fr, in.b)
				for l := 0; l < int(in.lanes); l++ {
					if in.flt {
						m.store64(addr+int64(8*l), math.Float64bits(val.vf[l]))
					} else {
						m.store64(addr+int64(8*l), uint64(val.vi[l]))
					}
				}
			case xGEP:
				addr := m.evalI(fr, in.a) + in.imm
				if len(in.ops) > 1 {
					addr += m.evalI(fr, in.b) * in.scale
				}
				fr.set(in.dst, iv(addr))
			case xMemCpy:
				dst := m.evalI(fr, in.a)
				src := m.evalI(fr, in.b)
				n := m.evalI(fr, in.ops[2])
				if n < 0 {
					m.trap("memcpy with negative length %d", n)
				}
				m.checkAddr(dst, n)
				m.checkAddr(src, n)
				m.memmove(dst, src, n)
			case xMemSet:
				dst := m.evalI(fr, in.a)
				b := byte(m.evalI(fr, in.b))
				n := m.evalI(fr, in.ops[2])
				if n < 0 {
					m.trap("memset with negative length %d", n)
				}
				m.checkAddr(dst, n)
				m.memset(dst, n, b)

			case xAdd:
				fr.set(in.dst, iv(m.evalI(fr, in.a)+m.evalI(fr, in.b)))
			case xSub:
				fr.set(in.dst, iv(m.evalI(fr, in.a)-m.evalI(fr, in.b)))
			case xMul:
				fr.set(in.dst, iv(m.evalI(fr, in.a)*m.evalI(fr, in.b)))
			case xSDiv, xSRem, xAnd, xOr, xXor, xShl, xAShr:
				x, y := m.evalI(fr, in.a), m.evalI(fr, in.b)
				fr.set(in.dst, iv(m.intOp(in.op, x, y)))
			case xIntV:
				x, y := m.vec(fr, in.a).vi, m.vec(fr, in.b).vi
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					out.vi[l] = m.intOp(in.sub, x[l], y[l])
				}
				fr.setVec(in, &out)
			case xFAdd:
				fr.set(in.dst, fv(m.evalF(fr, in.a)+m.evalF(fr, in.b)))
			case xFSub:
				fr.set(in.dst, fv(m.evalF(fr, in.a)-m.evalF(fr, in.b)))
			case xFMul:
				fr.set(in.dst, fv(m.evalF(fr, in.a)*m.evalF(fr, in.b)))
			case xFDiv:
				fr.set(in.dst, fv(m.evalF(fr, in.a)/m.evalF(fr, in.b)))
			case xFloatV:
				x, y := m.vec(fr, in.a).vf, m.vec(fr, in.b).vf
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					out.vf[l] = floatOp(in.sub, x[l], y[l])
				}
				fr.setVec(in, &out)

			case xSIToFP:
				fr.set(in.dst, fv(float64(m.evalI(fr, in.a))))
			case xSIToFPV:
				x := m.vec(fr, in.a).vi
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					out.vf[l] = float64(x[l])
				}
				fr.setVec(in, &out)
			case xFPToSI:
				fr.set(in.dst, iv(int64(m.evalF(fr, in.a))))
			case xFPToSIV:
				x := m.vec(fr, in.a).vf
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					out.vi[l] = int64(x[l])
				}
				fr.setVec(in, &out)

			case xICmp:
				x, y := m.evalI(fr, in.a), m.evalI(fr, in.b)
				fr.set(in.dst, iv(b2i(cmpInt(ir.Pred(in.pred), x, y))))
			case xFCmp:
				x, y := m.evalF(fr, in.a), m.evalF(fr, in.b)
				fr.set(in.dst, iv(b2i(cmpFloat(ir.Pred(in.pred), x, y))))
			case xSelect:
				pick := in.ops[2]
				if m.evalI(fr, in.a) != 0 {
					pick = in.b
				}
				fr.set(in.dst, m.val(fr, pick))
				if in.vdst >= 0 {
					fr.lanes[in.vdst] = *m.vec(fr, pick)
				}

			case xVSplat:
				x := m.val(fr, in.a)
				var out lanes
				for l := 0; l < int(in.lanes); l++ {
					out.vi[l] = x.i
					out.vf[l] = x.f
				}
				fr.setVec(in, &out)
			case xVExtract:
				x := m.vec(fr, in.a)
				lane := m.evalI(fr, in.b)
				if lane < 0 || lane >= int64(in.lanes) {
					m.trap("vector lane %d out of range", lane)
				}
				if in.flt {
					fr.set(in.dst, fv(x.vf[lane]))
				} else {
					fr.set(in.dst, iv(x.vi[lane]))
				}
			case xVInsert:
				x := m.val(fr, in.a)
				out := *m.vec(fr, in.a)
				s := m.val(fr, in.b)
				lane := m.evalI(fr, in.ops[2])
				if lane < 0 || lane >= int64(in.lanes) {
					m.trap("vector lane %d out of range", lane)
				}
				out.vi[lane] = s.i
				out.vf[lane] = s.f
				fr.set(in.dst, x)
				fr.lanes[in.vdst] = out
			case xVReduce:
				x := m.vec(fr, in.a)
				if in.flt {
					var sum float64
					for l := 0; l < int(in.lanes); l++ {
						sum += x.vf[l]
					}
					fr.set(in.dst, fv(sum))
				} else {
					var sum int64
					for l := 0; l < int(in.lanes); l++ {
						sum += x.vi[l]
					}
					fr.set(in.dst, iv(sum))
				}

			case xCall:
				cf := m.callee(df, in).acquire()
				cf.args = cf.args[:0]
				for _, o := range in.ops {
					cf.args = append(cf.args, m.val(fr, o))
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
				slow = !m.charge(in.next)
			case xIntrinsic:
				fr.set(in.dst, m.intrinsic(fr, in))
				slow = !m.charge(in.next)

			default:
				m.trap("unhandled opcode %s", in.in.Op)
			}
		}
		// Every terminator leaves the loop above.
		m.trap("block %s/%s fell through without terminator", df.fn.Name, blk.name)
	}
}

// phis assigns the block's phis in parallel from the incoming edge,
// ticking each phi when slow. Where no source is a phi that an earlier
// move assigns, the moves are made one by one.
func (m *machine) phis(fr *frame, blk *dblock, mv *moves, slow bool) {
	if !mv.temp && !blk.vphis && !slow {
		for j, src := range mv.src {
			if src.kind == oNoPhi {
				m.noIncoming(fr, blk)
			}
			fr.set(blk.phis[j], m.val(fr, src))
		}
		return
	}
	tmp := m.phiTmp[:0]
	for _, src := range mv.src {
		if src.kind == oNoPhi {
			m.noIncoming(fr, blk)
		}
		tmp = append(tmp, m.val(fr, src))
	}
	m.phiTmp = tmp
	if blk.vphis {
		m.vecPhis(fr, blk, mv.src, slow)
		return
	}
	for j, s := range blk.phis {
		fr.set(s, tmp[j])
		if slow {
			m.tick(0)
		}
	}
}

func (m *machine) noIncoming(fr *frame, blk *dblock) {
	m.trap("phi in %s/%s has no incoming for predecessor", fr.fn.fn.Name, blk.name)
}

// vecPhis is the rest of phis for a block where some phi carries
// lanes: those lanes are read, like the words, before any phi is set.
func (m *machine) vecPhis(fr *frame, blk *dblock, moves []opnd, slow bool) {
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
		if slow {
			m.tick(0)
		}
	}
}

// ref resolves an operand to its runtime value; the result must not be
// written through.
func (m *machine) ref(fr *frame, o opnd) *value {
	df := fr.fn
	switch o.kind {
	case oVal:
		return &fr.vals[o.idx]
	case oChecked:
		if !fr.defined(o.idx) {
			m.trap("use of undefined value %s in %s", df.slots[o.idx].Ident(), df.fn.Name)
		}
		return &fr.vals[o.idx]
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
	case oVal, oChecked:
		if int(o.idx) < len(df.laneOf) {
			if l := df.laneOf[o.idx]; l >= 0 && (o.kind == oVal || fr.defined(o.idx)) {
				return &fr.lanes[l]
			}
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

// val, evalI and evalF are ref(...) with a slot-or-constant read
// inline: one compare and one index.
func (m *machine) val(fr *frame, o opnd) value {
	if o.kind == oVal {
		return fr.vals[o.idx]
	}
	return *m.ref(fr, o)
}

func (m *machine) evalI(fr *frame, o opnd) int64 {
	if o.kind == oVal {
		return fr.vals[o.idx].i
	}
	return m.ref(fr, o).i
}

func (m *machine) evalF(fr *frame, o opnd) float64 {
	if o.kind == oVal {
		return fr.vals[o.idx].f
	}
	return m.ref(fr, o).f
}

func (m *machine) intOp(op xop, a, b int64) int64 {
	switch op {
	case xAdd:
		return a + b
	case xSub:
		return a - b
	case xMul:
		return a * b
	case xSDiv:
		if b == 0 {
			m.trap("integer division by zero")
		}
		return a / b
	case xSRem:
		if b == 0 {
			m.trap("integer remainder by zero")
		}
		return a % b
	case xAnd:
		return a & b
	case xOr:
		return a | b
	case xXor:
		return a ^ b
	case xShl:
		return a << uint(b&63)
	case xAShr:
		return a >> uint(b&63)
	}
	m.trap("bad int op")
	return 0
}

func floatOp(op xop, a, b float64) float64 {
	switch op {
	case xFAdd:
		return a + b
	case xFSub:
		return a - b
	case xFMul:
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
