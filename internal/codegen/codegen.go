// Package codegen lowers optimized IR to a virtual machine ISA:
// straightforward instruction selection, phi elimination by copies,
// and linear-scan register allocation. It produces the machine-level
// statistics the paper reports — "# machine instructions generated"
// (asm printer), "# register spills inserted" (register allocation),
// and the per-kernel register / stack-frame numbers of Fig. 7 — plus a
// deterministic binary encoding whose SHA-256 the probing driver uses
// as its executable-hash test cache key.
package codegen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/oraql/go-oraql/internal/cfg"
	"github.com/oraql/go-oraql/internal/ir"
)

// TargetInfo describes the register file of a compilation target.
type TargetInfo struct {
	Name    string
	IntRegs int
	FPRegs  int
	// Unified is true for GPU-style register files where int and fp
	// values share one bank.
	Unified bool
}

// Targets built in.
var (
	// X86 approximates a 64-bit host: 13 allocatable integer registers
	// (16 minus SP/BP/scratch) and 15 vector registers.
	X86 = TargetInfo{Name: "x86_64", IntRegs: 13, FPRegs: 15}
	// GPUSim approximates a GPU thread's unified register file.
	GPUSim = TargetInfo{Name: "gpu-sim", IntRegs: 64, FPRegs: 64, Unified: true}
)

// TargetFor picks the target matching a module target string.
func TargetFor(target string) TargetInfo {
	if target == GPUSim.Name {
		return GPUSim
	}
	return X86
}

// FuncStats are the per-function machine statistics.
type FuncStats struct {
	Name string
	// MachineInstrs is the number of machine instructions emitted.
	MachineInstrs int
	// Spills is the number of spill loads/stores inserted.
	Spills int
	// RegsUsed is the number of registers the function occupies (the
	// Fig. 7 "# registers" column; peak pressure capped at the bank).
	RegsUsed int
	// PeakPressure is the uncapped maximal number of simultaneously
	// live values.
	PeakPressure int
	// StackBytes is the stack frame size: allocas plus spill slots.
	StackBytes int64
	// IsKernel marks GPU kernel entry points.
	IsKernel bool
}

// Result is the outcome of compiling one module to machine code.
type Result struct {
	Target TargetInfo
	Funcs  []FuncStats
	// MachineInstrs is the module-wide machine instruction count.
	MachineInstrs int
	// Spills is the module-wide spill count.
	Spills int
	// Hash is the SHA-256 of the deterministic encoding.
	Hash [32]byte
}

// HashString returns the hex executable hash.
func (r *Result) HashString() string { return fmt.Sprintf("%x", r.Hash) }

// Lowered is one function's machine code: its statistics and the
// deterministic encoding the executable hash covers. It depends only
// on the function and the target.
type Lowered struct {
	Stats FuncStats
	Enc   []byte
}

// Lower lowers one function for target ti.
func Lower(f *ir.Func, ti TargetInfo) *Lowered {
	fs, enc := compileFunc(f, ti)
	return &Lowered{Stats: fs, Enc: enc}
}

// Compile lowers the module and returns machine statistics plus the
// executable hash.
func Compile(m *ir.Module) *Result {
	return Assemble(m, func(_ int, f *ir.Func, ti TargetInfo) *Lowered { return Lower(f, ti) })
}

// Assemble is Compile with the functions' lowerings supplied by lower,
// which gets each defined function with its index in m.Funcs and must
// return what Lower would.
func Assemble(m *ir.Module, lower func(fi int, f *ir.Func, ti TargetInfo) *Lowered) *Result {
	ti := TargetFor(m.Target)
	res := &Result{Target: ti}
	h := sha256.New()
	// Globals participate in the executable image.
	for _, g := range m.Globals {
		h.Write([]byte(g.Name))
		writeInt(h, g.Size)
		for _, v := range g.InitI64 {
			writeInt(h, v)
		}
		for _, v := range g.InitF64 {
			writeInt(h, int64(f2bits(v)))
		}
	}
	for fi, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		lo := lower(fi, f, ti)
		res.Funcs = append(res.Funcs, lo.Stats)
		res.MachineInstrs += lo.Stats.MachineInstrs
		res.Spills += lo.Stats.Spills
		h.Write([]byte(f.Name))
		h.Write(lo.Enc)
	}
	copy(res.Hash[:], h.Sum(nil))
	return res
}

// mi is one machine instruction in the virtual ISA.
type mi struct {
	op   string
	defs []int // virtual registers defined
	uses []int // virtual registers used
	imm  int64
	// imms carries immediate operands (constants by value, globals by
	// address identity): they must participate in the executable hash
	// or the driver's test cache would conflate different binaries.
	imms []int64
}

// compileFunc selects instructions, eliminates phis, allocates
// registers, and returns statistics plus the deterministic encoding.
func compileFunc(f *ir.Func, ti TargetInfo) (FuncStats, []byte) {
	info := cfg.New(f)
	// Virtual register numbering: params then instructions by ID.
	vreg := map[ir.Value]int{}
	next := 0
	alloc := func(v ir.Value) int {
		if r, ok := vreg[v]; ok {
			return r
		}
		vreg[v] = next
		next++
		return vreg[v]
	}
	for _, p := range f.Params {
		alloc(p)
	}
	var code []mi
	var stackBytes int64
	useOf := func(v ir.Value) (int, bool) {
		switch v.(type) {
		case *ir.Const, *ir.Global:
			return 0, false // immediates / absolute addresses
		}
		return alloc(v), true
	}
	immOf := func(v ir.Value) (int64, bool) {
		switch x := v.(type) {
		case *ir.Const:
			if x.Ty == ir.F64 {
				return int64(math.Float64bits(x.F)), true
			}
			if x.Str != "" {
				return int64(strHash(x.Str)), true
			}
			return x.I, true
		case *ir.Global:
			return int64(x.ID) | (1 << 62), true
		}
		return 0, false
	}
	emit := func(op string, def ir.Value, imm int64, uses ...ir.Value) {
		m := mi{op: op, imm: imm}
		for _, u := range uses {
			if r, ok := useOf(u); ok {
				m.uses = append(m.uses, r)
			} else if iv, isImm := immOf(u); isImm {
				m.imms = append(m.imms, iv)
			}
		}
		if def != nil {
			m.defs = append(m.defs, alloc(def))
		}
		code = append(code, m)
	}

	for _, b := range info.RPO {
		for _, in := range b.Instrs {
			if in.Dead() {
				continue
			}
			switch in.Op {
			case ir.OpAlloca:
				stackBytes += (in.Size + 7) &^ 7
				emit("lea.sp", in, in.Size)
			case ir.OpLoad:
				op := "ld"
				if in.Ty.Kind == ir.KVec {
					op = "vld"
				}
				emit(op, in, 0, in.Operands[0])
			case ir.OpStore:
				op := "st"
				if in.Operands[0].Type().Kind == ir.KVec {
					op = "vst"
				}
				emit(op, nil, 0, in.Operands[0], in.Operands[1])
			case ir.OpGEP:
				emit("lea", in, in.Off, in.Operands...)
			case ir.OpMemCpy:
				emit("call.memcpy", nil, 0, in.Operands...)
			case ir.OpMemSet:
				emit("call.memset", nil, 0, in.Operands...)
			case ir.OpPhi:
				// Handled by copies in predecessors below; the phi
				// itself only claims its register.
				alloc(in)
			case ir.OpCall:
				for _, a := range in.Operands {
					emit("mov.arg", nil, 0, a)
				}
				var def ir.Value
				if in.Ty != ir.Void {
					def = in
				}
				emit("call."+in.Callee, def, 0)
			case ir.OpBr:
				if len(in.Succs) == 2 {
					// Phi copies for both successors precede the branch.
					emitPhiCopies(&code, b, in.Succs[0], alloc, useOf)
					emitPhiCopies(&code, b, in.Succs[1], alloc, useOf)
					emit("br.cond", nil, 0, in.Operands[0])
				} else {
					emitPhiCopies(&code, b, in.Succs[0], alloc, useOf)
					emit("br", nil, 0)
				}
			case ir.OpRet:
				if len(in.Operands) > 0 {
					emit("mov.ret", nil, 0, in.Operands[0])
				}
				emit("ret", nil, 0)
			case ir.OpICmp, ir.OpFCmp:
				emit("cmp."+in.Pred.String(), in, 0, in.Operands...)
			case ir.OpSelect:
				emit("cmov", in, 0, in.Operands...)
			default:
				op := in.Op.String()
				if in.Ty.Kind == ir.KVec {
					op = "v" + op
				}
				emit(op, in, in.Size, in.Operands...)
			}
		}
	}

	spills, peak, used := linearScan(code, next, regBank(ti))
	stackBytes += int64(8 * countSpillSlots(code, spills))

	fs := FuncStats{
		Name:          f.Name,
		MachineInstrs: len(code) + spillInstrs(code, spills),
		Spills:        spillInstrs(code, spills),
		RegsUsed:      used,
		PeakPressure:  peak,
		StackBytes:    stackBytes,
		IsKernel:      f.Attrs.Kernel,
	}
	return fs, encode(code, spills)
}

func regBank(ti TargetInfo) int {
	if ti.Unified {
		return ti.IntRegs
	}
	// Split banks are approximated by their sum; the pressure mix in
	// our IR is dominated by one bank at a time anyway.
	return ti.IntRegs + ti.FPRegs
}

// emitPhiCopies lowers phi nodes of succ into moves at the end of pred.
func emitPhiCopies(code *[]mi, pred, succ *ir.Block, alloc func(ir.Value) int, useOf func(ir.Value) (int, bool)) {
	for _, in := range succ.Instrs {
		if in.Dead() || in.Op != ir.OpPhi {
			continue
		}
		for i, from := range in.Incoming {
			if from != pred {
				continue
			}
			m := mi{op: "mov.phi", defs: []int{alloc(in)}}
			if r, ok := useOf(in.Operands[i]); ok {
				m.uses = append(m.uses, r)
			}
			*code = append(*code, m)
		}
	}
}

// linearScan computes live intervals over the linearized code and
// assigns K registers, spilling the interval with the furthest end
// when pressure exceeds K (Poletto–Sarkar). Returns the set of spilled
// vregs, the peak pressure, and the number of registers used.
func linearScan(code []mi, nvregs, k int) (spilled map[int]bool, peak, used int) {
	start := make([]int, nvregs)
	end := make([]int, nvregs)
	seen := make([]bool, nvregs)
	for i := range start {
		start[i] = -1
	}
	touch := func(r, pos int) {
		if !seen[r] {
			seen[r] = true
			start[r], end[r] = pos, pos
			return
		}
		if pos > end[r] {
			end[r] = pos
		}
	}
	for pos, m := range code {
		for _, r := range m.defs {
			touch(r, pos)
		}
		for _, r := range m.uses {
			touch(r, pos)
		}
	}
	type interval struct{ vr, s, e int }
	var ivs []interval
	for r := 0; r < nvregs; r++ {
		if seen[r] {
			ivs = append(ivs, interval{r, start[r], end[r]})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].s != ivs[j].s {
			return ivs[i].s < ivs[j].s
		}
		return ivs[i].vr < ivs[j].vr
	})
	spilled = map[int]bool{}
	var active []interval // sorted by end
	insertActive := func(iv interval) {
		i := sort.Search(len(active), func(i int) bool { return active[i].e > iv.e })
		active = append(active, interval{})
		copy(active[i+1:], active[i:])
		active[i] = iv
	}
	maxActive := 0
	for _, iv := range ivs {
		// Expire.
		j := 0
		for _, a := range active {
			if a.e >= iv.s {
				active[j] = a
				j++
			}
		}
		active = active[:j]
		if len(active) >= k {
			// Spill the furthest-ending interval.
			last := active[len(active)-1]
			if last.e > iv.e {
				spilled[last.vr] = true
				active = active[:len(active)-1]
				insertActive(iv)
			} else {
				spilled[iv.vr] = true
			}
		} else {
			insertActive(iv)
		}
		if len(active) > maxActive {
			maxActive = len(active)
		}
		if len(active)+1 > peak {
			peak = len(active)
		}
	}
	peak = maxActive
	used = maxActive
	if used > k {
		used = k
	}
	return spilled, peak, used
}

// spillInstrs counts the reload/store instructions spilling introduces:
// one store at each def plus one reload at each use of a spilled vreg.
func spillInstrs(code []mi, spilled map[int]bool) int {
	n := 0
	for _, m := range code {
		for _, r := range m.defs {
			if spilled[r] {
				n++
			}
		}
		for _, r := range m.uses {
			if spilled[r] {
				n++
			}
		}
	}
	return n
}

func countSpillSlots(_ []mi, spilled map[int]bool) int { return len(spilled) }

// encode produces the deterministic binary encoding hashed for the
// executable cache.
func encode(code []mi, spilled map[int]bool) []byte {
	var out []byte
	for _, m := range code {
		out = append(out, []byte(m.op)...)
		out = append(out, 0)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(m.imm))
		out = append(out, tmp[:]...)
		for _, iv := range m.imms {
			binary.LittleEndian.PutUint64(tmp[:], uint64(iv))
			out = append(out, tmp[:]...)
		}
		out = append(out, 0xFD)
		for _, r := range m.defs {
			out = appendReg(out, r, spilled)
		}
		out = append(out, 0xFE)
		for _, r := range m.uses {
			out = appendReg(out, r, spilled)
		}
		out = append(out, 0xFF)
	}
	return out
}

func appendReg(out []byte, r int, spilled map[int]bool) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(r))
	out = append(out, tmp[:]...)
	if spilled[r] {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

func writeInt(h interface{ Write([]byte) (int, error) }, v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	h.Write(tmp[:])
}

func f2bits(f float64) uint64 { return math.Float64bits(f) }

// strHash gives string constants a stable immediate encoding (FNV-1a).
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
