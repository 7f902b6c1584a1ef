package irinterp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/oraql/go-oraql/internal/ir"
)

// TestPagedMemoryMatchesFlat drives the page table and a flat byte
// slice with the same random accesses around page boundaries: aligned
// and straddling 8-byte loads and stores, memsets (zero and not) and
// overlapping memmoves in both directions.
func TestPagedMemoryMatchesFlat(t *testing.T) {
	const base, span = heapBase - 2*pageSize, 5 * pageSize
	m, err := newMachine(&Program{Host: ir.NewModule("t")}, Options{}.withDefaults(), 0, newMailboxes(1))
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]byte, span)
	r := rand.New(rand.NewSource(1))
	// near picks an offset within 24 bytes of a page boundary, or
	// anywhere in the window.
	near := func(room int64) int64 {
		if r.Intn(4) == 0 {
			return r.Int63n(span - room)
		}
		off := r.Int63n(4)*pageSize + pageSize - 24 + r.Int63n(48)
		return min(max(off, 0), span-room)
	}
	for step := 0; step < 20000; step++ {
		switch r.Intn(5) {
		case 0:
			off, v := near(8), r.Uint64()
			m.store64(base+off, v)
			binary.LittleEndian.PutUint64(flat[off:], v)
		case 1:
			off := near(8)
			if got, want := m.load64(base+off), binary.LittleEndian.Uint64(flat[off:]); got != want {
				t.Fatalf("step %d: load64(+%d) = %#x, want %#x", step, off, got, want)
			}
		case 2:
			n := r.Int63n(3 * pageSize / 2)
			off, b := near(n), byte(r.Intn(3))
			m.memset(base+off, n, b)
			for i := off; i < off+n; i++ {
				flat[i] = b
			}
		case 3:
			n := r.Int63n(2 * pageSize)
			src := near(n)
			dst := min(max(src+r.Int63n(200)-100, 0), span-n)
			m.memmove(base+dst, base+src, n)
			copy(flat[dst:dst+n], flat[src:src+n])
		case 4:
			n := r.Int63n(pageSize)
			off := near(n)
			if got := m.readBytes(base+off, n); !bytes.Equal(got, flat[off:off+n]) {
				t.Fatalf("step %d: readBytes(+%d, %d) differs", step, off, n)
			}
			data := make([]byte, r.Int63n(64))
			r.Read(data)
			off = near(int64(len(data)))
			m.writeBytes(base+off, data)
			copy(flat[off:], data)
		}
	}
	if got := m.readBytes(base, span); !bytes.Equal(got, flat) {
		t.Fatal("final memory differs from the flat reference")
	}
}

// heapProgram builds main: p = malloc(3 pages); body(p); print the
// FNV checksum of the 3 pages. body mirrors its writes into a flat
// reference, from which the expected output is computed.
func heapProgram(body func(b *ir.Builder, p ir.Value, ref []byte)) (*ir.Module, string) {
	m := ir.NewModule("t")
	_, b := ir.NewFunc(m, "main", ir.I64)
	p := b.Call(ir.Ptr, "__malloc", ir.ConstInt(3*pageSize))
	ref := make([]byte, 3*pageSize)
	body(b, p, ref)
	sum := b.Call(ir.I64, "__checksum_i64", p, ir.ConstInt(3*pageSize/8))
	b.Call(ir.Void, "__print_i64", sum)
	b.Ret(ir.ConstInt(0))
	acc := int64(1469598103934665603)
	for i := 0; i < len(ref); i += 8 {
		acc = (acc ^ int64(binary.LittleEndian.Uint64(ref[i:]))) * 1099511628211
	}
	return m, strconv.FormatInt(acc, 10)
}

func at(b *ir.Builder, p ir.Value, off int64) ir.Value { return b.GEP(p, nil, 0, off, "") }

func storeAt(b *ir.Builder, p ir.Value, ref []byte, off int64, v uint64) {
	b.Store(ir.ConstInt(int64(v)), at(b, p, off), "")
	binary.LittleEndian.PutUint64(ref[off:], v)
}

// fill writes distinct words over [off, off+n).
func fill(b *ir.Builder, p ir.Value, ref []byte, off, n int64) {
	for i := off; i < off+n; i += 8 {
		storeAt(b, p, ref, i, 0x0102030405060708*uint64(i+1))
	}
}

func TestUnalignedAccessStraddlingPage(t *testing.T) {
	m, want := heapProgram(func(b *ir.Builder, p ir.Value, ref []byte) {
		fill(b, p, ref, pageSize-16, 32)
		storeAt(b, p, ref, pageSize-3, 0x1122334455667788)
		// Store the straddling word, read back, across the next
		// boundary so the checksum covers the load too.
		v := b.Load(ir.I64, at(b, p, pageSize-3), "")
		b.Store(v, at(b, p, 2*pageSize-5), "")
		copy(ref[2*pageSize-5:], ref[pageSize-3:pageSize+5])
	})
	if got := runModule(t, m, Options{}).Stdout; got != want {
		t.Errorf("checksum %s, want %s", got, want)
	}
}

func TestMemCpyOverlapAcrossPage(t *testing.T) {
	for _, shift := range []int64{5, -5, 40, -40} {
		t.Run(fmt.Sprint(shift), func(t *testing.T) {
			m, want := heapProgram(func(b *ir.Builder, p ir.Value, ref []byte) {
				fill(b, p, ref, pageSize-128, 256)
				src, n := int64(pageSize-100), int64(200)
				b.MemCpy(at(b, p, src+shift), at(b, p, src), ir.ConstInt(n))
				copy(ref[src+shift:src+shift+n], ref[src:src+n])
			})
			if got := runModule(t, m, Options{}).Stdout; got != want {
				t.Errorf("checksum %s, want %s", got, want)
			}
		})
	}
}

func TestMemSetSpansPages(t *testing.T) {
	m, want := heapProgram(func(b *ir.Builder, p ir.Value, ref []byte) {
		off, n := int64(pageSize-5), int64(pageSize+10)
		b.MemSet(at(b, p, off), ir.ConstInt(0x1AB), ir.ConstInt(n))
		for i := off; i < off+n; i++ {
			ref[i] = 0xAB
		}
	})
	if got := runModule(t, m, Options{}).Stdout; got != want {
		t.Errorf("checksum %s, want %s", got, want)
	}
}

// TestAllocaRezeroesReusedStack calls a function twice: its alloca
// reuses the stack bytes the first call wrote and must read zero.
func TestAllocaRezeroesReusedStack(t *testing.T) {
	m := ir.NewModule("t")
	_, fb := ir.NewFunc(m, "f", ir.Void)
	a := fb.Alloca(16, "a")
	fb.Call(ir.Void, "__print_i64", fb.Load(ir.I64, fb.GEP(a, nil, 0, 8, ""), ""))
	fb.Store(ir.ConstInt(42), fb.GEP(a, nil, 0, 8, ""), "")
	fb.Ret(nil)
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Call(ir.Void, "f")
	b.Call(ir.Void, "f")
	b.Ret(ir.ConstInt(0))
	if got := runModule(t, m, Options{}).Stdout; got != "00" {
		t.Errorf("stdout = %q, want %q", got, "00")
	}
}

func TestNeverWrittenMemoryReadsZero(t *testing.T) {
	m, b := buildMain(t)
	for _, addr := range []int64{30 << 20, 40<<20 - 4, 64<<20 - 8} {
		b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(addr), ""))
	}
	b.Ret(ir.ConstInt(0))
	if got := runModule(t, m, Options{}).Stdout; got != "000" {
		t.Errorf("stdout = %q, want %q", got, "000")
	}
}

// TestAccessAtMemLimit uses a limit that is not a multiple of the page
// size: a store and load ending exactly at the limit succeed, and one
// byte further traps.
func TestAccessAtMemLimit(t *testing.T) {
	const limit = 9<<20 + 12
	m, b := buildMain(t)
	b.Store(ir.ConstInt(7), ir.ConstInt(limit-8), "")
	b.Call(ir.Void, "__print_i64", b.Load(ir.I64, ir.ConstInt(limit-8), ""))
	b.Ret(ir.ConstInt(0))
	if got := runModule(t, m, Options{MemLimit: limit}).Stdout; got != "7" {
		t.Errorf("stdout = %q, want 7", got)
	}

	m, b = buildMain(t)
	b.Load(ir.I64, ir.ConstInt(limit-7), "")
	b.Ret(ir.ConstInt(0))
	_, err := Run(&Program{Host: m}, Options{MemLimit: limit})
	want := fmt.Sprintf("simulated trap: out-of-bounds access at %#x (size 8)", limit-7)
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

func TestGlobalLayoutMemoryLimit(t *testing.T) {
	m := ir.NewModule("t")
	m.AddGlobal(&ir.Global{Name: "small", Size: 64, InitI64: []int64{1}})
	m.AddGlobal(&ir.Global{Name: "big", Size: 2 << 20})
	_, b := ir.NewFunc(m, "main", ir.I64)
	b.Ret(ir.ConstInt(0))
	_, err := Run(&Program{Host: m}, Options{MemLimit: 3 << 19})
	// small sits at 0x1000; big starts at 0x1040 and ends 2 MiB later.
	want := "simulated trap: memory limit exceeded at address 0x201040"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
	if _, err := Run(&Program{Host: m}, Options{MemLimit: 3 << 20}); err != nil {
		t.Errorf("layout within the limit: %v", err)
	}
}

// dirtyRun fills three heap pages with a non-zero pattern, so its pages
// go back to the pool dirty; with trap it then divides by zero.
func dirtyRun(t *testing.T, trap bool) {
	m, b := buildMain(t)
	p := b.Call(ir.Ptr, "__malloc", ir.ConstInt(3*pageSize))
	b.MemSet(p, ir.ConstInt(0xAB), ir.ConstInt(3*pageSize))
	if trap {
		b.Call(ir.Void, "__print_i64", b.Bin(ir.OpSDiv, ir.ConstInt(1), ir.ConstInt(0), ""))
	}
	b.Ret(ir.ConstInt(0))
	_, err := Run(&Program{Host: m}, Options{})
	if trap != (err != nil) {
		t.Errorf("trap %v: err = %v", trap, err)
	}
}

// sparseProgram writes one word into each of three heap pages, at the
// addresses dirtyRun filled, and prints the checksum of all three.
func sparseProgram() (*ir.Module, string) {
	return heapProgram(func(b *ir.Builder, p ir.Value, ref []byte) {
		for i := int64(0); i < 3; i++ {
			storeAt(b, p, ref, i*pageSize+pageSize/2, 0x5A5A5A5A5A5A5A5A+uint64(i))
		}
	})
}

// TestPooledPagesReadZero: pages return to the pool when a run ends,
// normally or by a trap, and a page taken from it reads zero wherever
// its new run never wrote, although the run before filled it.
func TestPooledPagesReadZero(t *testing.T) {
	m, want := sparseProgram()
	for _, trap := range []bool{false, true} {
		dirtyRun(t, trap)
		// Make sure the next run takes dirty pages even if the pool
		// dropped the ones above.
		for range 4 {
			p := new(page)
			for i := range p {
				p[i] = 0xCD
			}
			pagePool.Put(p)
		}
		if got := runModule(t, m, Options{}).Stdout; got != want {
			t.Fatalf("after a dirty run (trap %v): checksum %s, want %s", trap, got, want)
		}
	}
}

// TestPooledPagesConcurrentRuns shares the pool between concurrent runs
// that fill and trap and runs that write sparsely; under -race it also
// checks that no page is shared while in use.
func TestPooledPagesConcurrentRuns(t *testing.T) {
	m, want := sparseProgram()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				if g%2 == 0 {
					dirtyRun(t, g == 2)
					continue
				}
				res, err := Run(&Program{Host: m}, Options{})
				if err != nil {
					t.Errorf("sparse run: %v", err)
					return
				}
				if res.Stdout != want {
					t.Errorf("sparse run: checksum %s, want %s", res.Stdout, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
