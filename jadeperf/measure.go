package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A round is one fixed-size unit of a workload's timed phase: one pass
// over the paper tables, one batched replay of the sweep grid, or one
// fixed batch of serve-mix requests. The timed phase repeats rounds
// until the --seconds budget is spent, and every end-to-end figure is
// a median over rounds (or a percentile over all requests), so the
// number of rounds that happen to fit never changes what a metric
// means.
type round struct {
	wall   time.Duration
	alloc  uint64 // bytes allocated during the round
	reqs   int    // requests completed in the round
	cells  int    // simulation cells completed in the round
	failed int    // failed operations in the round
}

// phase is the outcome of a timed phase.
type phase struct {
	rounds   []round
	lat      []float64 // per-request latency, seconds, all rounds
	wall     time.Duration
	gcCycles uint32
	liveHeap uint64 // HeapAlloc after a forced GC at the end
}

// runPhase calls fn for rounds until the budget is spent. Another
// round starts only while the previous round's length still fits, so
// a round never overruns the budget by more than noise; at least one
// round always runs. fn returns the round's request latencies.
func runPhase(budget time.Duration, fn func() (round, []float64)) phase {
	var ph phase
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	for {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		r, lat := fn()
		r.wall = time.Since(t0)
		runtime.ReadMemStats(&ms)
		r.alloc = ms.TotalAlloc - a0
		ph.rounds = append(ph.rounds, r)
		ph.lat = append(ph.lat, lat...)
		if time.Since(start)+r.wall > budget {
			break
		}
	}
	ph.wall = time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	ph.gcCycles = ms.NumGC - gc0
	ph.liveHeap = ms.HeapAlloc
	return ph
}

func (ph phase) attempted() (n, failed int) {
	for _, r := range ph.rounds {
		n += r.reqs
		failed += r.failed
	}
	return n, failed
}

// endToEnd turns a timed phase into the end-to-end metrics every
// workload reports.
func (ph phase) endToEnd(m metricSet, setup float64) {
	walls, allocs, rps, cps := make([]float64, 0, len(ph.rounds)), []float64{}, []float64{}, []float64{}
	for _, r := range ph.rounds {
		s := r.wall.Seconds()
		walls = append(walls, s)
		allocs = append(allocs, float64(r.alloc)/1e6)
		rps = append(rps, float64(r.reqs)/s)
		cps = append(cps, float64(r.cells)/s)
	}
	m.set("setup_s", setup, "s")
	m.set("run_s", median(walls), "s")
	m.set("cells_per_s", median(cps), "1/s")
	m.set("req_per_s", median(rps), "1/s")
	m.set("req_p50_ms", percentile(ph.lat, 0.50)*1e3, "ms")
	m.set("req_p99_ms", percentile(ph.lat, 0.99)*1e3, "ms")
	m.set("alloc_mb", median(allocs), "MB")
	m.set("live_heap_mb", float64(ph.liveHeap)/1e6, "MB")
}

// median returns the middle value (mean of the middle two for even
// counts); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile; 0 for no values.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// beyond counts the samples ranked strictly above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0
// where /proc is unavailable. It is informational only: the kernel's
// reading does not repeat across identical runs.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

// medianOf times fn n times and returns the median duration in
// seconds; set-up steps use it so one slow repetition cannot move
// setup_s.
func medianOf(n int, fn func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = time.Since(t0).Seconds()
	}
	return median(v)
}
