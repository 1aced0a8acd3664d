package telemetry

import (
	"bufio"
	"errors"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// maxPhases bounds the number of named phases a profiler tracks; the
// engine's hot loop has a handful (churn, topology, deliver, handlers,
// route) plus one per named hook.
const maxPhases = 16

// PhaseProfiler times the engine round loop phase by phase. All of its
// output is wall-clock and therefore outside the determinism contract: it
// registers timing counters (excluded from DeterministicSnapshot) and its
// JSONL stream is only schema-pinned by tests, never value-pinned.
//
// Usage: the engine calls Begin at the top of the round, then Lap(phase)
// after each phase completes; EndRound closes the round. Single-writer,
// engine-serial. Like a nil Tracer, a nil profiler is off: Begin, Lap and
// EndRound do nothing.
type PhaseProfiler struct {
	names  []string
	totals []Counter // dynp2p_phase_<name>_ns_total timing counters

	cur  [maxPhases]int64 // this round's per-phase ns
	last time.Time

	w   *bufio.Writer // JSONL stream, nil when off
	buf []byte
}

// NewPhaseProfiler creates a profiler for the given phase names (at most
// maxPhases; extras are dropped) registering per-phase ns counters on reg.
func NewPhaseProfiler(reg *Registry, names []string) *PhaseProfiler {
	if len(names) > maxPhases {
		names = names[:maxPhases]
	}
	p := &PhaseProfiler{names: append([]string(nil), names...)}
	for _, n := range p.names {
		p.totals = append(p.totals, reg.TimingCounter("dynp2p_phase_"+n+"_ns_total", "cumulative wall-clock ns in round phase "+n))
	}
	return p
}

// Names returns the phase names in Lap-index order.
func (p *PhaseProfiler) Names() []string { return p.names }

// StreamTo directs per-round phase timings as JSONL to w (nil stops).
func (p *PhaseProfiler) StreamTo(w io.Writer) {
	if w == nil {
		p.w = nil
		return
	}
	p.w = bufio.NewWriterSize(w, 1<<16)
}

// Flush drains buffered JSONL output.
func (p *PhaseProfiler) Flush() error {
	if p.w == nil {
		return nil
	}
	return p.w.Flush()
}

// Begin starts timing a round.
func (p *PhaseProfiler) Begin() {
	if p == nil {
		return
	}
	for i := range p.cur[:len(p.names)] {
		p.cur[i] = 0
	}
	p.last = time.Now()
}

// Lap records the time since the previous Lap (or Begin) against phase i.
func (p *PhaseProfiler) Lap(i int) {
	if p == nil {
		return
	}
	now := time.Now()
	if i >= 0 && i < len(p.names) {
		p.cur[i] += now.Sub(p.last).Nanoseconds()
	}
	p.last = now
}

// EndRound commits the round's timings to the registry and the JSONL
// stream. round is the engine round just finished.
func (p *PhaseProfiler) EndRound(round int64) {
	if p == nil {
		return
	}
	for i := range p.names {
		p.totals[i].Add(0, p.cur[i])
	}
	if p.w != nil {
		b := p.buf[:0]
		b = append(b, `{"round":`...)
		b = strconv.AppendInt(b, round, 10)
		for i, n := range p.names {
			b = append(b, `,"`...)
			b = append(b, n...)
			b = append(b, `_ns":`...)
			b = strconv.AppendInt(b, p.cur[i], 10)
		}
		b = append(b, '}', '\n')
		p.buf = b
		p.w.Write(b)
	}
}

// Profile starts a CPU profile written to cpuPath and returns the function
// that stops it and then writes a heap profile of live memory to memPath;
// an empty path skips its profile.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live memory
		return errors.Join(pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
