package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibration probe: a fixed two-thread memory workload timed beside
// the simulator. The box this benchmark was sized on moves between speed
// regimes up to 50% apart that last minutes (shared cache and memory, not
// the binary). Dependent random loads over a table far larger than the
// private caches slow down with it; the simulator, whose heap is larger
// still and is walked by the garbage collector, slows down a little more:
// across regimes its host time moved as probe^1.25 on all four workloads
// (README, Calibration). Host-time metrics are therefore scaled by
// (probeRefMS / measured probe ms)^probeExponent, which turned raw swings
// of 45-50% into 15-35% and quartile spreads of 26-36% into 10-13%.
const (
	probeTableBytes = 256 << 20
	probeThreads    = pinnedWorkers
	probeRandLoads  = 1 << 18 // per thread
	// probeRefMS is the probe's time on the reference box in its usual
	// state, probeExponent the fitted sensitivity. Both are committed
	// constants: changing either rescales every calibrated metric.
	probeRefMS    = 50.0
	probeExponent = 1.25
	// probeGap is the simulator time between two probes of the timed
	// region. Probes run with the simulator paused, between rounds, and
	// their time is excluded from every metric.
	probeGap = 500 * time.Millisecond
)

type probe struct {
	table []uint64
	sinks [probeThreads * 8]uint64 // one per thread, a cache line apart
}

// newProbe maps and fills a table of tableBytes (a power of two;
// probeTableBytes outside tests). The table lives outside the Go heap, so
// that it does not move the garbage collector's pacing of the program under
// test, and is resident from here to the end of the process, so that peak
// RSS minus its size is the peak of everything else.
func newProbe(tableBytes int) *probe {
	mem, err := syscall.Mmap(-1, 0, tableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mapping the probe table: " + err.Error())
	}
	p := &probe{table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), tableBytes/8)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range p.table {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		p.table[i] = z ^ (z >> 31)
	}
	return p
}

// run times one probe pass and returns milliseconds: every thread makes
// probeRandLoads dependent random loads in its own part of the table.
func (p *probe) run() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(probeThreads)
	part := len(p.table) / probeThreads
	for g := 0; g < probeThreads; g++ {
		go func() {
			defer wg.Done()
			tab := p.table[g*part : (g+1)*part]
			mask := uint64(len(tab) - 1)
			idx := p.sinks[g*8] & mask
			for i := uint64(0); i < probeRandLoads; i++ {
				// Mixing in i keeps the chase out of the short cycles a
				// random function has.
				idx = (tab[idx] + i) & mask
			}
			p.sinks[g*8] = idx
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// probeSeries accumulates the probes of one region.
type probeSeries struct {
	sum float64
	n   int
}

func (s *probeSeries) add(ms float64) { s.sum += ms; s.n++ }
func (s *probeSeries) mean() float64  { return s.sum / float64(s.n) }

// scale is the factor raw host time is multiplied by.
func (s *probeSeries) scale() float64 {
	return math.Pow(probeRefMS/s.mean(), probeExponent)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSBytes reads the process's resident high-water mark.
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}
