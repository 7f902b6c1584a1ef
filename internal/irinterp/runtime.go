package irinterp

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"github.com/oraql/go-oraql/internal/ir"
)

// mailboxes provide the synchronous MPI exchange channels: one buffered
// channel per (from, to) rank pair, plus one done channel per rank,
// closed when the rank exits.
type mailboxes struct {
	n    int
	ch   []chan []byte
	done []chan struct{}
}

func newMailboxes(n int) *mailboxes {
	b := &mailboxes{n: n, ch: make([]chan []byte, n*n), done: make([]chan struct{}, n)}
	for i := range b.ch {
		// A few exchanges may be in flight per pair before the sender
		// blocks, as with an eager MPI transport.
		b.ch[i] = make(chan []byte, 4)
	}
	for i := range b.done {
		b.done[i] = make(chan struct{})
	}
	return b
}

// send delivers data from one rank to another. It reports false only
// when the buffer is full and the receiver has exited, so the send
// could never complete.
func (b *mailboxes) send(from, to int, data []byte) bool {
	ch := b.ch[from*b.n+to]
	select {
	case ch <- data:
		return true
	case <-b.done[to]:
	}
	// The receiver has exited; its buffer state is final.
	select {
	case ch <- data:
		return true
	default:
		return false
	}
}

// recv takes the next message from one rank to another. It reports
// false only when the sender has exited without sending it.
func (b *mailboxes) recv(from, to int) ([]byte, bool) {
	ch := b.ch[from*b.n+to]
	select {
	case data := <-ch:
		return data, true
	case <-b.done[from]:
	}
	// The sender has exited; what it sent is all there will be.
	select {
	case data := <-ch:
		return data, true
	default:
		return nil, false
	}
}

// send and recv stop the rank when its peer has exited, instead of
// waiting forever.
func (m *machine) send(to int, data []byte) {
	if !m.box.send(m.rank, to, data) {
		m.stalled = true
		m.trap("MPI send to rank %d, which has exited", to)
	}
}

func (m *machine) recv(from int) []byte {
	data, ok := m.box.recv(from, m.rank)
	if !ok {
		m.stalled = true
		m.trap("MPI receive from rank %d, which has exited", from)
	}
	return data
}

type intrinsic uint8

const (
	iUnhandled intrinsic = iota
	iPrintI64
	iPrintF64
	iPrintStr
	iSqrt
	iFabs
	iExp
	iLog
	iSin
	iCos
	iPow
	iMinI64
	iMaxI64
	iMinF64
	iMaxF64
	iMalloc
	iFree
	iClock
	iChecksumF64
	iChecksumI64
	iOMPFork
	iOMPTask
	iOMPTaskwait
	iOMPThreadID
	iOMPNumThreads
	iMPIRank
	iMPISize
	iMPISendrecv
	iMPIAllreduceF64
	iGPULaunch
	iGPUTid
	iGPUNtid
)

var intrinsics = map[string]intrinsic{
	"__print_i64": iPrintI64, "__print_f64": iPrintF64, "__print_str": iPrintStr,
	"__sqrt": iSqrt, "__fabs": iFabs, "__exp": iExp, "__log": iLog,
	"__sin": iSin, "__cos": iCos, "__pow": iPow,
	"__min_i64": iMinI64, "__max_i64": iMaxI64, "__min_f64": iMinF64, "__max_f64": iMaxF64,
	"__malloc": iMalloc, "__free": iFree, "__clock": iClock,
	"__checksum_f64": iChecksumF64, "__checksum_i64": iChecksumI64,
	"__omp_fork": iOMPFork, "__omp_task": iOMPTask, "__omp_taskwait": iOMPTaskwait,
	"__omp_thread_id": iOMPThreadID, "__omp_num_threads": iOMPNumThreads,
	"__mpi_rank": iMPIRank, "__mpi_size": iMPISize,
	"__mpi_sendrecv": iMPISendrecv, "__mpi_allreduce_f64": iMPIAllreduceF64,
	"__gpu_launch": iGPULaunch, "__gpu_tid": iGPUTid, "__gpu_ntid": iGPUNtid,
}

// intrinsic runs a runtime call; user calls recurse through exec.
func (m *machine) intrinsic(fr *frame, in *dinstr) value {
	i := func(k int) int64 { return m.evalI(fr, in.ops[k]) }
	f := func(k int) float64 { return m.evalF(fr, in.ops[k]) }
	switch in.intr {
	case iPrintI64:
		m.out.WriteString(strconv.FormatInt(i(0), 10))
	case iPrintF64:
		fmt.Fprintf(&m.out, "%.10g", f(0))
	case iPrintStr:
		c, ok := in.in.Operands[0].(*ir.Const)
		if !ok {
			m.trap("print_str needs a string constant")
		}
		m.out.WriteString(c.Str)
	case iSqrt:
		return fv(math.Sqrt(f(0)))
	case iFabs:
		return fv(math.Abs(f(0)))
	case iExp:
		return fv(math.Exp(f(0)))
	case iLog:
		return fv(math.Log(f(0)))
	case iSin:
		return fv(math.Sin(f(0)))
	case iCos:
		return fv(math.Cos(f(0)))
	case iPow:
		return fv(math.Pow(f(0), f(1)))
	case iMinI64:
		return iv(min(i(0), i(1)))
	case iMaxI64:
		return iv(max(i(0), i(1)))
	case iMinF64:
		return fv(math.Min(f(0), f(1)))
	case iMaxF64:
		return fv(math.Max(f(0), f(1)))
	case iMalloc:
		size := (i(0) + 15) &^ 15
		if size < 0 {
			m.trap("malloc with negative size")
		}
		addr := m.heapPtr
		m.checkAddr(addr, size)
		m.heapPtr += size
		return iv(addr)
	case iFree:
		// Bump allocator: free is a no-op, like many HPC arenas.
	case iClock:
		// Deterministic per binary, volatile across binaries — the
		// verification regexes must mask lines containing it, exactly
		// as the paper masks reported runtimes.
		return iv(m.cycles + m.devCycles)
	case iChecksumF64:
		return fv(m.checksumF64(i(0), i(1)))
	case iChecksumI64:
		return iv(m.checksumI64(i(0), i(1)))
	case iOMPFork:
		ctx, n := i(1), i(2)
		m.ompFork(in.in, ctx, n)
	case iOMPTask:
		fn := m.namedFunc(in.in.Operands[0])
		m.tasks = append(m.tasks, pendingTask{fn: fn, ctx: i(1)})
	case iOMPTaskwait:
		m.drainTasks()
	case iOMPThreadID:
		return iv(int64(m.ompTID))
	case iOMPNumThreads:
		return iv(int64(m.opts.NumThreads))
	case iMPIRank:
		return iv(int64(m.rank))
	case iMPISize:
		return iv(int64(m.opts.NumRanks))
	case iMPISendrecv:
		sendbuf, recvbuf, n, dest, source := i(0), i(1), i(2), i(3), i(4)
		m.mpiSendrecv(sendbuf, recvbuf, n, dest, source)
	case iMPIAllreduceF64:
		return fv(m.mpiAllreduce(f(0)))
	case iGPULaunch:
		ctx, n := i(1), i(2)
		m.gpuLaunch(in.in, ctx, n)
	case iGPUTid:
		return iv(m.gpuTID)
	case iGPUNtid:
		return iv(m.gpuNtid)
	default:
		m.trap("unhandled intrinsic %s", in.in.Callee)
	}
	return value{}
}

// callee resolves user call site in of df, memoized per kernel mode.
func (m *machine) callee(df *dfunc, in *dinstr) *dfunc {
	k := 2 * int(in.call)
	if m.inKernel != "" {
		k++
	}
	if c := df.callees[k]; c != nil {
		return c
	}
	c := m.decoded(m.lookupFunc(in.in.Callee))
	df.callees[k] = c
	return c
}

func (m *machine) lookupFunc(name string) *ir.Func {
	// Inside a kernel, device copies of functions take precedence (the
	// __device__ compilation of the same source function).
	if m.inKernel != "" {
		if f := m.devFuncs[name]; f != nil {
			return f
		}
	}
	if f := m.hostFuncs[name]; f != nil {
		return f
	}
	if f := m.devFuncs[name]; f != nil {
		return f
	}
	m.trap("call to unknown function %s", name)
	return nil
}

// namedFunc resolves the function-name constant of fork/task/launch.
func (m *machine) namedFunc(v ir.Value) *ir.Func {
	c, ok := v.(*ir.Const)
	if !ok || c.Str == "" {
		m.trap("fork/launch target must be a function-name constant")
	}
	return m.lookupFunc(c.Str)
}

// ompFork executes the outlined region for each simulated thread's
// chunk of [0, n), sequentially and in thread order — deterministic by
// construction. Outlined signature: (ctx ptr, lo i64, hi i64).
func (m *machine) ompFork(in *ir.Instr, ctx, n int64) {
	fn := m.namedFunc(in.Operands[0])
	t := int64(m.opts.NumThreads)
	chunk := max((n+t-1)/t, 1)
	savedTID := m.ompTID
	for tid := int64(0); tid < t; tid++ {
		lo := tid * chunk
		hi := min(lo+chunk, n)
		if lo >= n {
			break
		}
		m.ompTID = int(tid)
		m.callFunc(fn, iv(ctx), iv(lo), iv(hi))
	}
	m.ompTID = savedTID
}

// drainTasks runs queued tasks FIFO; tasks may enqueue more tasks.
func (m *machine) drainTasks() {
	for len(m.tasks) > 0 {
		t := m.tasks[0]
		m.tasks = m.tasks[1:]
		// Task signature: (ctx ptr, lo i64, hi i64); lo/hi carried in
		// the context by the frontend, passed as zeros here.
		m.callFunc(t.fn, iv(t.ctx), iv(0), iv(0))
	}
}

// mpiSendrecv performs the synchronous pairwise exchange
// (sendbuf, recvbuf, nbytes, dest, source).
func (m *machine) mpiSendrecv(sendbuf, recvbuf, n, dest, source int64) {
	if n < 0 {
		m.trap("sendrecv with negative length")
	}
	m.checkAddr(sendbuf, n)
	m.checkAddr(recvbuf, n)
	if dest < 0 || dest >= int64(m.box.n) || source < 0 || source >= int64(m.box.n) {
		m.trap("sendrecv peer out of range (dest %d, source %d)", dest, source)
	}
	if int(dest) == m.rank && int(source) == m.rank {
		m.memmove(recvbuf, sendbuf, n)
		return
	}
	m.send(int(dest), m.readBytes(sendbuf, n))
	data := m.recv(int(source))
	if int64(len(data)) != n {
		m.trap("sendrecv length mismatch: sent %d, expected %d", len(data), n)
	}
	m.writeBytes(recvbuf, data)
}

// mpiAllreduce sums a double across ranks (deterministic rank order).
func (m *machine) mpiAllreduce(x float64) float64 {
	if m.box.n == 1 {
		return x
	}
	// Gather to rank 0 via the mailboxes, then broadcast.
	if m.rank != 0 {
		m.send(0, binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		return getF64(m.recv(0))
	}
	sum := x
	for r := 1; r < m.box.n; r++ {
		sum += getF64(m.recv(r))
	}
	for r := 1; r < m.box.n; r++ {
		m.send(r, binary.LittleEndian.AppendUint64(nil, math.Float64bits(sum)))
	}
	return sum
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// gpuLaunch runs the kernel for tid 0..n-1 on the simulated device.
// Kernel signature: (ctx ptr, tid i64 via __gpu_tid).
func (m *machine) gpuLaunch(in *ir.Instr, ctx, n int64) {
	fn := m.namedFunc(in.Operands[0])
	if f := m.devFuncs[fn.Name]; f != nil {
		fn = f
	}
	saved, savedCycles, savedTID, savedN := m.inKernel, m.kernelCycles, m.gpuTID, m.gpuNtid
	m.inKernel, m.kernelCycles = fn.Name, nil
	m.gpuNtid = n
	m.kernelLaunches[fn.Name]++
	for tid := int64(0); tid < n; tid++ {
		m.gpuTID = tid
		m.callFunc(fn, iv(ctx))
	}
	m.inKernel, m.kernelCycles, m.gpuTID, m.gpuNtid = saved, savedCycles, savedTID, savedN
}

// checksumF64 is an order-sensitive checksum over n doubles: any
// miscompiled store or reordered result changes it.
func (m *machine) checksumF64(addr, n int64) float64 {
	var acc float64
	for i := int64(0); i < n; i++ {
		x := math.Float64frombits(m.load64(addr + 8*i))
		acc = acc*1.0000001 + x*float64(i%7+1)
	}
	return acc
}

func (m *machine) checksumI64(addr, n int64) int64 {
	var acc int64 = 1469598103934665603 // FNV offset basis
	for i := int64(0); i < n; i++ {
		acc = (acc ^ int64(m.load64(addr+8*i))) * 1099511628211
	}
	return acc
}
