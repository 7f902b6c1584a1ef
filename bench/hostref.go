package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The container shares its machine, and the speed the machine gives it
// drifts by ±15% and more within minutes: every workload, and any fixed
// computation, slows down and speeds up together. A run therefore
// interleaves shots of a fixed reference computation with its work (one
// before every probe campaign, three around every set-up and between
// every two seconds of serve traffic) and scales each time it measures
// by the shots taken around it to a host on which the reference takes
// refNominalMS. The reference
// uses no code of the repository, and each shot starts from a collected
// heap, so a change to the repository cannot move it. The measured
// values are kept beside the scaled ones in the result record.
const refNominalMS = 14.0

// refBuf is the reference's hashing input.
var refBuf = make([]byte, 6<<20)

// refTree is the reference's pointer-heavy data.
type refTree struct {
	l, r *refTree
	v    int
	s    string
}

func buildRefTree(d int) *refTree {
	if d == 0 {
		return &refTree{}
	}
	return &refTree{l: buildRefTree(d - 1), r: buildRefTree(d - 1), v: d, s: strconv.Itoa(d)}
}

func (t *refTree) sum() int {
	if t == nil {
		return 0
	}
	return t.v + len(t.s) + t.l.sum() + t.r.sum()
}

// hostRef is the reference computation: plain hashing plus map
// inserts, string formatting, sorting and tree building, the
// allocation-heavy mix the compiler and the interpreter also make.
func hostRef() int {
	sum := sha256.Sum256(refBuf)
	m := make(map[int]string)
	for i := 0; i < 20000; i++ {
		m[i*7] = fmt.Sprint(i)
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return int(sum[0]) + buildRefTree(12).sum() + len(keys)
}

// hostMeter records reference shots in run order.
type hostMeter struct {
	shotsMS []float64
}

// shot times the reference once, after collecting the heap.
func (h *hostMeter) shot() {
	runtime.GC()
	t0 := time.Now()
	if hostRef() == 0 {
		panic("bench: host reference computed nothing")
	}
	h.shotsMS = append(h.shotsMS, ms(time.Since(t0)))
}

func (h *hostMeter) shots(n int) {
	for i := 0; i < n; i++ {
		h.shot()
	}
}

// mark is the index the next shot will get.
func (h *hostMeter) mark() int { return len(h.shotsMS) }

// scale is the factor that turns a time measured while shots [lo, hi)
// were taken into the time on the nominal host.
func (h *hostMeter) scale(lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, len(h.shotsMS))
	return ratio(refNominalMS, median(h.shotsMS[lo:hi]))
}

// medianMS is the median of every shot of the run.
func (h *hostMeter) medianMS() float64 { return median(h.shotsMS) }
