package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main, after the Go runtime is up. setup_s is
// measured from here.
var processStart = time.Now()

// quantile returns the p-quantile of sorted values by the method of
// Python's statistics.quantiles (exclusive): position p·(n+1),
// interpolated, clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || sorted[lo] == sorted[lo+1] { // equal neighbours may be +Inf
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// hiPercentile picks the highest reportable percentile for n samples:
// the largest of 50/75/90/95/99/99.9 that still has at least ten
// samples beyond it. Below twenty samples not even the median has, and
// the median is reported.
func hiPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p    float64
		minN int // ten samples beyond p need this many in all
	}{{75, 40}, {90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if n >= c.minN {
			best = c.p
		}
	}
	return best
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// passSample is the host-time cost of one pass.
type passSample struct {
	Seed       uint64  `json:"seed"`
	WallMs     float64 `json:"wall_ms"`
	CPUSec     float64 `json:"cpu_s"`
	Mallocs    float64 `json:"mallocs"`
	AllocMB    float64 `json:"alloc_mb"`
	Deliveries float64 `json:"deliveries"`
}

// timePass runs one pass and measures its wall time, process CPU and
// allocation deltas. MemStats are read outside the timed interval.
func timePass(inst *instance, seed uint64, counts bool) (passSample, *passOut, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := inst.pass(seed, counts)
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	s := passSample{
		Seed:    seed,
		WallMs:  float64(wall.Nanoseconds()) / 1e6,
		CPUSec:  c1 - c0,
		Mallocs: float64(m1.Mallocs - m0.Mallocs),
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}
	if out != nil {
		s.Deliveries = out.Deliveries
	}
	return s, out, err
}

// mallocsDuring returns the heap allocations fn makes.
func mallocsDuring(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}
