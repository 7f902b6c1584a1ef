package irinterp

import (
	"reflect"
	"testing"
	"time"

	"github.com/oraql/go-oraql/internal/ir"
)

// runWithin runs p and fails the test if Run does not return within
// three seconds.
func runWithin(t *testing.T, p *Program, opts Options) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(p, opts)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return within 3s")
		return nil, nil
	}
}

// ringProgram: every rank whose flag is set divides by zero; the
// others send their rank to the right neighbour and receive from the
// left one.
func ringProgram(flags ...int64) *Program {
	m := ir.NewModule("t")
	g := m.AddGlobal(&ir.Global{Name: "flags", Size: 8 * int64(len(flags)), InitI64: flags})
	_, b := ir.NewFunc(m, "main", ir.I64)
	buf := b.Alloca(8, "send")
	rbuf := b.Alloca(8, "recv")
	rank := b.Call(ir.I64, "__mpi_rank")
	size := b.Call(ir.I64, "__mpi_size")
	b.Store(rank, buf, "")
	flag := b.Load(ir.I64, b.GEP(g, rank, 8, 0, ""), "")
	bad := b.NewBlock("bad")
	ok := b.NewBlock("ok")
	b.CondBr(b.ICmp(ir.PredNE, flag, ir.ConstInt(0), ""), bad, ok)
	b.SetBlock(bad)
	b.Bin(ir.OpSDiv, ir.ConstInt(1), b.Bin(ir.OpSub, flag, flag, ""), "")
	b.Ret(ir.ConstInt(1))
	b.SetBlock(ok)
	right := b.Bin(ir.OpSRem, b.Bin(ir.OpAdd, rank, ir.ConstInt(1), ""), size, "")
	left := b.Bin(ir.OpSRem, b.Bin(ir.OpSub, b.Bin(ir.OpAdd, rank, size, ""), ir.ConstInt(1), ""), size, "")
	b.Call(ir.Void, "__mpi_sendrecv", buf, rbuf, ir.ConstInt(8), right, left)
	b.Ret(ir.ConstInt(0))
	return &Program{Host: m}
}

// TestMPITrapDoesNotHang: a rank that traps before its exchange must
// not leave its peers blocked forever, and Run reports the trap that
// caused the failure, of the lowest rank when several trap.
func TestMPITrapDoesNotHang(t *testing.T) {
	const div0 = ": simulated trap: integer division by zero"
	cases := []struct {
		name  string
		flags []int64
		want  string
	}{
		{"rank0-of-2", []int64{1, 0}, "rank 0" + div0},
		{"rank2-of-3", []int64{0, 0, 1}, "rank 2" + div0},
		{"ranks1and2-of-3", []int64{0, 1, 1}, "rank 1" + div0},
		{"none", []int64{0, 0, 0}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := runWithin(t, ringProgram(c.flags...), Options{NumRanks: len(c.flags)})
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Errorf("err = %q, want %q", got, c.want)
			}
		})
	}
}

// TestMPIReceiveFromExitedRank: rank 0 waits for a message rank 1
// never sends, because rank 1 returned normally. That deadlock is the
// program's own failure and is reported as a trap.
func TestMPIReceiveFromExitedRank(t *testing.T) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	buf := b.Alloca(8, "buf")
	rank := b.Call(ir.I64, "__mpi_rank")
	wait := b.NewBlock("wait")
	exit := b.NewBlock("exit")
	b.CondBr(b.ICmp(ir.PredEQ, rank, ir.ConstInt(0), ""), wait, exit)
	b.SetBlock(wait)
	b.Call(ir.Void, "__mpi_sendrecv", buf, buf, ir.ConstInt(8), ir.ConstInt(0), ir.ConstInt(1))
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(ir.ConstInt(0))
	_, err := runWithin(t, &Program{Host: m}, Options{NumRanks: 2})
	want := "rank 0: simulated trap: MPI receive from rank 1, which has exited"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// kernelProgram returns a device module with an empty kernel "inner"
// and a kernel "outer" that launches inner with 3 threads, and a host
// main that launches the named kernel with n threads.
func kernelProgram(kernel string, n int64) *Program {
	dev := ir.NewModule("t.device")
	dev.Target = "gpu-sim"
	_, ib := ir.NewFunc(dev, "inner", ir.Void, &ir.Arg{Name: "ctx", Ty: ir.Ptr})
	ib.Ret(nil)
	ctx := &ir.Arg{Name: "ctx", Ty: ir.Ptr}
	_, ob := ir.NewFunc(dev, "outer", ir.Void, ctx)
	ob.Call(ir.Void, "__gpu_launch", ir.ConstStr("inner"), ctx, ir.ConstInt(3))
	ob.Ret(nil)
	host := ir.NewModule("t")
	_, b := ir.NewFunc(host, "main", ir.I64)
	b.Call(ir.Void, "__gpu_launch", ir.ConstStr(kernel), b.Alloca(8, "ctx"), ir.ConstInt(n))
	b.Ret(ir.ConstInt(0))
	return &Program{Host: host, Device: dev}
}

func TestZeroThreadLaunchAddsNoKernelCycles(t *testing.T) {
	res, err := Run(kernelProgram("inner", 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.KernelCycles["inner"]; ok || len(res.KernelCycles) != 0 {
		t.Errorf("KernelCycles = %v, want no key", res.KernelCycles)
	}
	if res.KernelLaunches["inner"] != 1 || res.DeviceInstrs != 0 {
		t.Errorf("launches = %v, device instrs = %d", res.KernelLaunches, res.DeviceInstrs)
	}
}

// TestNestedLaunchAttributesInnerKernel: cycles of a kernel launched
// from a kernel belong to the inner kernel, and the outer kernel keeps
// counting after it returns.
func TestNestedLaunchAttributesInnerKernel(t *testing.T) {
	res, err := Run(kernelProgram("outer", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// outer: launch call (4) + ret (1); inner: 3 threads x ret (1).
	if want := map[string]int64{"outer": 5, "inner": 3}; !reflect.DeepEqual(res.KernelCycles, want) {
		t.Errorf("KernelCycles = %v, want %v", res.KernelCycles, want)
	}
	if want := map[string]int64{"outer": 1, "inner": 1}; !reflect.DeepEqual(res.KernelLaunches, want) {
		t.Errorf("KernelLaunches = %v, want %v", res.KernelLaunches, want)
	}
	if res.DeviceInstrs != 5 || res.DeviceCycles != 8 || res.Instrs != 3 || res.Cycles != 6 {
		t.Errorf("device %d/%d host %d/%d, want device 5/8 host 3/6",
			res.DeviceInstrs, res.DeviceCycles, res.Instrs, res.Cycles)
	}
}
