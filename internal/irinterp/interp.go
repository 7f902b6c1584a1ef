// Package irinterp executes IR modules on a simulated machine. It is
// the "hardware" of the reproduction: the ORAQL verification script
// compares the stdout of interpreter runs, and the dynamic instruction
// and cycle counters stand in for perf's executed-instruction counts
// and wall-clock measurements. Deterministic simulated runtimes provide
// OpenMP (fork/join and tasks), MPI (rank goroutines with synchronous
// exchanges), and GPU kernel launches for offload modules.
//
// A function is decoded the first time a run calls it (decode.go):
// operands become argument indices or indices into the frame's value
// array, which holds the instructions' slots and then the constants and
// global addresses; a dataflow proves which slot reads need no
// defined-value check, and each straight-line segment's counter charge
// is precomputed. The decoded code
// is shared through a code cache by the ranks of a run, and by the
// runs of programs that share a Program.Code cache. Simulated memory
// is a lazily allocated page table (memory.go).
package irinterp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// Options configures a run.
type Options struct {
	// NumThreads is the simulated OpenMP thread count (default 4).
	NumThreads int
	// NumRanks is the simulated MPI rank count (default 1).
	NumRanks int
	// StepLimit aborts runs exceeding this many executed instructions,
	// catching non-termination introduced by bad optimizations
	// (default 200M).
	StepLimit int64
	// MemLimit caps simulated memory per rank in bytes (default 64MB).
	MemLimit int64
}

func (o Options) withDefaults() Options {
	if o.NumThreads <= 0 {
		o.NumThreads = 4
	}
	if o.NumRanks <= 0 {
		o.NumRanks = 1
	}
	if o.StepLimit <= 0 {
		o.StepLimit = 200_000_000
	}
	if o.MemLimit <= 0 {
		o.MemLimit = 64 << 20
	}
	return o
}

// Program bundles the host module with an optional device module
// (offload configurations compile kernels separately).
type Program struct {
	Host   *ir.Module
	Device *ir.Module
	// Code, when non-nil, is a code cache shared with other programs
	// whose function bodies and globals this one shares: a compile
	// session's test programs. A run whose global layout the cache
	// does not serve, and a run of a program without one, decodes
	// into a cache of its own that its MPI ranks share.
	Code *CodeCache
}

// Result reports a completed run.
type Result struct {
	Stdout string
	// Instrs / Cycles count host-side dynamic instructions and
	// cost-model cycles (summed over ranks).
	Instrs int64
	Cycles int64
	// DeviceInstrs / DeviceCycles count work inside GPU kernels.
	DeviceInstrs int64
	DeviceCycles int64
	// KernelCycles breaks device time down per kernel function.
	KernelCycles map[string]int64
	// KernelLaunches counts launches per kernel.
	KernelLaunches map[string]int64
}

// KernelNames returns the launched kernels sorted by name.
func (r *Result) KernelNames() []string {
	names := make([]string, 0, len(r.KernelCycles))
	for n := range r.KernelCycles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the program's main function on every rank and returns
// the combined result. Any simulated trap (out-of-bounds access,
// division by zero, step limit) is returned as an error; the
// verification layer treats those as failures, exactly like a crashed
// benchmark binary. When ranks trap, the lowest-ranked trap is
// reported; a rank stuck in an exchange with a rank that has exited
// stops instead of waiting forever.
func Run(p *Program, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{KernelCycles: map[string]int64{}, KernelLaunches: map[string]int64{}}
	if p.Host.FuncByName("main") == nil {
		return nil, errors.New("irinterp: no main function")
	}
	ranks := make([]*machine, 0, opts.NumRanks)
	defer func() {
		// Every rank has stopped: its pages go back to the pool.
		for _, m := range ranks {
			m.releasePages()
		}
	}()
	boxes := newMailboxes(opts.NumRanks)
	for r := range opts.NumRanks {
		m, err := newMachine(p, opts, r, boxes)
		if err != nil {
			return nil, err
		}
		ranks = append(ranks, m)
	}
	// Every rank lays the globals out alike, so the ranks share one
	// code cache: the program's when it fits, else the run's own.
	code := p.Code
	if code == nil || !code.fits(ranks[0].globals) {
		code = &CodeCache{layout: ranks[0].globals}
	}
	for _, m := range ranks {
		m.code = code
	}
	if opts.NumRanks == 1 {
		if err := ranks[0].callMain(); err != nil {
			return nil, err
		}
	} else if err := runRanks(ranks, boxes); err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, m := range ranks {
		sb.WriteString(m.out.String())
		res.Instrs += m.instrs
		res.Cycles += m.cycles
		res.DeviceInstrs += m.devInstrs
		res.DeviceCycles += m.devCycles
		for k, v := range m.kernels {
			res.KernelCycles[k] += *v
		}
		for k, v := range m.kernelLaunches {
			res.KernelLaunches[k] += v
		}
	}
	res.Stdout = sb.String()
	return res, nil
}

// runRanks runs every rank on its own goroutine and waits for all of
// them. A rank that exits, normally or by a trap, closes its done
// channel, which releases any peer blocked on an exchange with it.
func runRanks(ranks []*machine, boxes *mailboxes) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for r, m := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(boxes.done[r])
			errs[r] = m.callMain()
		}()
	}
	wg.Wait()
	// A stalled rank only reports when no rank trapped on its own: its
	// error is a consequence of the trap, not a cause.
	for pass := 0; pass < 2; pass++ {
		for r, err := range errs {
			if err != nil && (pass == 1 || !ranks[r].stalled) {
				return fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	return nil
}

// value is a runtime value's scalar word pair, 16 bytes. Both words
// are kept, so a value reads the same as an integer or a float
// whatever wrote it. A vector value also carries lanes, which live in
// its frame's lane array (frame.lanes); its scalar words are zero
// unless a copy carried them in.
type value struct {
	i int64
	f float64
}

// lanes are a vector value's lanes, read as integers or floats.
type lanes struct {
	vi [4]int64
	vf [4]float64
}

// noLanes is what a value without lanes reads as a vector.
var noLanes lanes

func iv(x int64) value   { return value{i: x} }
func fv(x float64) value { return value{f: x} }

// machine is the per-rank execution state.
type machine struct {
	prog *Program
	opts Options
	rank int
	box  *mailboxes

	pages    []*page
	heapPtr  int64
	stackPtr int64
	globals  map[*ir.Global]int64

	// hostFuncs / devFuncs resolve call targets by name (the first
	// function of a name wins, as in ir.Module.FuncByName); funcs
	// memoizes the machine's functions, whose code comes from code.
	hostFuncs, devFuncs map[string]*ir.Func
	funcs               map[*ir.Func]*dfunc
	code                *CodeCache
	phiTmp              []value
	phiLanes            []lanes
	// retLanes are the lanes of the last returned value when retVec
	// says it had any.
	retLanes lanes
	retVec   bool

	out strings.Builder

	instrs, cycles       int64
	devInstrs, devCycles int64
	// kernels holds each kernel's cycle counter; kernelCycles points
	// at the running kernel's, nil until its first instruction.
	kernels        map[string]*int64
	kernelCycles   *int64
	kernelLaunches map[string]int64

	// runtime state
	ompTID   int
	inKernel string
	gpuTID   int64
	gpuNtid  int64
	tasks    []pendingTask
	// stalled marks a rank stopped because a peer it exchanges with
	// exited.
	stalled bool
}

type pendingTask struct {
	fn  *ir.Func
	ctx int64
}

// Memory layout (per rank).
const (
	globalBase = 0x1000
	heapBase   = 8 << 20
	stackBase  = 48 << 20
)

// layoutMin is the lowest bound the global layout is checked against:
// globals that end within the first MiB always lay out, even under a
// smaller MemLimit (accesses past MemLimit still trap).
const layoutMin = 1 << 20

func newMachine(p *Program, opts Options, rank int, boxes *mailboxes) (*machine, error) {
	m := &machine{
		prog: p, opts: opts, rank: rank, box: boxes,
		heapPtr: heapBase, stackPtr: stackBase,
		globals:        map[*ir.Global]int64{},
		hostFuncs:      funcsByName(p.Host),
		funcs:          map[*ir.Func]*dfunc{},
		kernels:        map[string]*int64{},
		kernelLaunches: map[string]int64{},
	}
	if p.Device != nil {
		m.devFuncs = funcsByName(p.Device)
	}
	addr := int64(globalBase)
	layout := func(mod *ir.Module) {
		for _, g := range mod.Globals {
			if _, done := m.globals[g]; done {
				continue // shared host/device global
			}
			addr = (addr + 15) &^ 15
			m.globals[g] = addr
			for i, v := range g.InitI64 {
				m.store64(addr+int64(8*i), uint64(v))
			}
			for i, v := range g.InitF64 {
				m.store64(addr+int64(8*i), math.Float64bits(v))
			}
			if end := addr + g.Size; len(g.InitI64) == 0 && len(g.InitF64) == 0 &&
				end > m.opts.MemLimit && end > layoutMin {
				m.trap("memory limit exceeded at address %#x", end)
			}
			addr += g.Size
		}
	}
	err := catchTrap(func() {
		layout(p.Host)
		if p.Device != nil {
			layout(p.Device)
		}
	})
	if err != nil {
		m.releasePages()
		return nil, err
	}
	return m, nil
}

func funcsByName(mod *ir.Module) map[string]*ir.Func {
	out := make(map[string]*ir.Func, len(mod.Funcs))
	for _, f := range mod.Funcs {
		if _, dup := out[f.Name]; !dup {
			out[f.Name] = f
		}
	}
	return out
}

func (m *machine) callMain() error {
	return catchTrap(func() { m.callFunc(m.hostFuncs["main"]) })
}

type trapError string

func (m *machine) trap(format string, args ...any) {
	panic(trapError(fmt.Sprintf("simulated trap: "+format, args...)))
}

// catchTrap runs f and returns a simulated trap raised inside it as an
// error; any other panic is a bug and propagates.
func catchTrap(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(trapError)
			if !ok {
				panic(r)
			}
			err = errors.New(string(te))
		}
	}()
	f()
	return nil
}

// cost is the cycle cost model (the "wall time" stand-in).
func cost(in *ir.Instr) int64 {
	switch in.Op {
	case ir.OpMul, ir.OpFMul:
		return 3
	case ir.OpSDiv, ir.OpSRem, ir.OpFDiv:
		return 16
	case ir.OpLoad, ir.OpStore:
		return 4
	case ir.OpMemCpy, ir.OpMemSet:
		return 8
	case ir.OpCall:
		switch in.Callee {
		case "__sqrt", "__exp", "__log", "__sin", "__cos", "__pow":
			return 20
		}
		return 4
	case ir.OpPhi:
		return 0
	default:
		return 1
	}
}

// charge charges a straight-line segment up front. It charges nothing
// and reports false when the segment would cross the step limit; the
// caller then ticks each of its instructions, so the limit traps where
// it would one instruction at a time. Charging ahead is otherwise
// invisible: a segment ends at every call and intrinsic, the only
// places that read the counters or run other code, and a trap inside
// it discards them.
func (m *machine) charge(c charge) bool {
	if m.instrs+m.devInstrs+int64(c.n) > m.opts.StepLimit {
		return false
	}
	if m.inKernel == "" {
		m.instrs += int64(c.n)
		m.cycles += int64(c.cycles)
	} else {
		m.devCharge(c)
	}
	return true
}

// tick charges one executed instruction of cost c and enforces the
// step limit.
func (m *machine) tick(c int32) {
	if m.inKernel == "" {
		m.instrs++
		m.cycles += int64(c)
	} else {
		m.devCharge(charge{1, c})
	}
	if m.instrs+m.devInstrs > m.opts.StepLimit {
		m.trap("step limit exceeded (%d instructions): possible non-termination", m.opts.StepLimit)
	}
}

func (m *machine) devCharge(c charge) {
	m.devInstrs += int64(c.n)
	m.devCycles += int64(c.cycles)
	if m.kernelCycles == nil {
		m.kernelCycles = m.kernels[m.inKernel]
		if m.kernelCycles == nil {
			m.kernelCycles = new(int64)
			m.kernels[m.inKernel] = m.kernelCycles
		}
	}
	*m.kernelCycles += int64(c.cycles)
}
