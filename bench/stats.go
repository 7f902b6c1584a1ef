package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads here match spreads computed from the same
// values elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, m, n := len(s), len(s)+1, 4
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the user+system CPU time this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap allocation of this process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a
// process from /proc (pid 0 = this process).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", path, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts the VmHWM high-water mark of a process at its
// current resident set (pid 0 = this process).
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// procCPUTime reads the user+system CPU time of another process from
// /proc/<pid>/stat (clock ticks, 100 per second on Linux).
func procCPUTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// provenance records where and how a result was measured.
type provenance struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Time       string `json:"time"`
}

func newProvenance(o *options) provenance {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+dirty"
			}
		}
	}
	return provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Quick:      o.quick,
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
	}
}
