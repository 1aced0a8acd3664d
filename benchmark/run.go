package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dynp2p"
	"dynp2p/internal/ida"
	"dynp2p/internal/protocol"
	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// A run sets the network up at least setupMinReps times, and more (to
// setupMaxReps) while the set-ups have taken less than setupBudget in all,
// so that small networks get as steady a median as large ones. setup_s is
// the median. Only the last network is driven.
const (
	setupMinReps = 5
	setupMaxReps = 25
	setupBudget  = 1500 * time.Millisecond
)

// runOpts selects one run.
type runOpts struct {
	w       workload // already sized
	seed    uint64
	workers int
	outDir  string // trace files; "" = do not write
	pr      *probe
}

// leg is the outcome of driving one stack through the workload once.
type leg struct {
	digest string
	tally  tally
	rounds int // timed rounds

	setupRaw  float64 // median set-up, seconds
	setupCal  float64 // ... calibrated
	rawWall   float64 // timed region, seconds, probes excluded
	roundNS   []int64 // ... round by round (load issue + Run(1) + collect)
	rawCPU    float64
	probeMS   float64 // mean probe over the timed region
	probes    int     // ... and how many
	setupReps int
	scale     float64 // (probeRefMS / probeMS)^probeExponent

	mallocs, allocBytes uint64
	numGC               uint32
	gcCPUFrac           float64

	latencies    []int
	itemsAlive   int
	itemsStored  int
	start, end   dynp2p.Stats // around the timed region
	copiesTotal  int
	lambdaEnd    float64
	issueNS      int64
	searchMsgs   float64
	routeHopsP50 int64
	routeHopsP99 int64
	maxLinkLoad  int64
	phaseNS      map[string]int64 // engine phase counters over the timed region (traced only)
	spans        layerTotals      // traced only
}

// build makes the stack for one leg. A traced leg records into rec.
func build(cfg dynp2p.Config, rec *recorder) stack {
	if rec == nil {
		return dynp2p.New(cfg)
	}
	return newTracedStack(cfg, rec)
}

// runLeg sets the network up (several times when repeatSetup is set,
// keeping the last), drives the workload through it, verifies the outcome
// and returns the measurements.
func runLeg(o runOpts, rec *recorder, repeatSetup bool) (*leg, error) {
	cfg := o.w.config(o.seed, o.workers)
	l := &leg{}
	pr := o.pr

	// Set-up region: constructor + warm-up rounds, a probe between every
	// two set-ups.
	var st stack
	var setupRaw []float64
	var setupProbes probeSeries
	var spent time.Duration
	setupProbes.add(pr.run())
	for i := 0; i == 0 || repeatSetup && (i < setupMinReps || i < setupMaxReps && spent < setupBudget); i++ {
		st = nil
		runtime.GC()
		var from int64
		if rec != nil {
			from = rec.now()
		}
		t0 := time.Now()
		st = build(cfg, rec)
		st.Run(st.WarmupRounds())
		took := time.Since(t0)
		if rec != nil {
			rec.add(span{Name: spanSetup, Start: from, End: rec.now(), Parent: -1, Round: -1})
		}
		spent += took
		setupRaw = append(setupRaw, took.Seconds())
		setupProbes.add(pr.run())
	}
	l.setupRaw, l.setupCal = median(setupRaw), median(setupRaw)*setupProbes.scale()

	// Timed region: every phase plus the drain. Between rounds the
	// simulator pauses for a probe whenever probeGap has passed since the
	// last; probe time is excluded from the region's wall and CPU. The
	// cadence follows host time but touches nothing simulated.
	d := newDriver(o.w, st, o.seed)
	drain := phase{name: "drain", rounds: st.Tunables().Protocol.Period}
	var ps probeSeries
	var probeWall, probeCPU float64
	var lastProbe time.Time
	doProbe := func() {
		c0, t0 := cpuSeconds(), time.Now()
		ps.add(pr.run())
		lastProbe = time.Now()
		probeCPU += cpuSeconds() - c0
		probeWall += lastProbe.Sub(t0).Seconds()
	}
	spanFrom := 0
	if rec != nil {
		spanFrom = len(rec.spans)
	}
	reg := st.Engine().Telemetry()
	phase0 := phaseCounters(st)
	hops0 := reg.HistogramValue("dynp2p_route_hops")
	search0 := reg.HistogramValue("dynp2p_search_hops")
	// The max-link gauge is a running maximum and exists only with a
	// router; resetting it makes the reading the timed region's own.
	const maxLinkGauge = "dynp2p_route_max_link_load"
	if o.w.routed() {
		reg.Gauge(maxLinkGauge, "").Set(0)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l.start = st.Stats()
	doProbe()
	c0, t0 := cpuSeconds(), time.Now()
	phases := append(append([]phase(nil), o.w.phases...), drain)
	for pi, p := range phases {
		d.begin(p)
		for r := 0; r < p.rounds; r++ {
			r0 := time.Now()
			d.step()
			l.roundNS = append(l.roundNS, time.Since(r0).Nanoseconds())
			l.rounds++
			if time.Since(lastProbe) >= probeGap {
				doProbe()
			}
		}
		if pi == len(o.w.phases)-1 {
			// Durability is judged at the end of the last phase, before
			// the idle drain.
			l.itemsAlive, l.itemsStored = d.itemsAlive(), len(d.stored)
		}
	}
	doProbe()
	l.rawWall = time.Since(t0).Seconds() - probeWall
	l.rawCPU = cpuSeconds() - c0 - probeCPU
	runtime.ReadMemStats(&ms1)
	l.end = st.Stats()
	d.finish()

	l.probeMS, l.scale, l.probes, l.setupReps = ps.mean(), ps.scale(), ps.n, len(setupRaw)
	l.mallocs, l.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	l.numGC, l.gcCPUFrac = ms1.NumGC-ms0.NumGC, ms1.GCCPUFraction
	l.tally, l.latencies, l.issueNS = d.tally, d.latencies, d.issueNS
	l.lambdaEnd = st.Engine().Graph().SpectralGapEstimate(rng.New(0x1a3bda), 40)
	for _, key := range d.stored {
		l.copiesTotal += st.Handler().CopyCount(key)
	}
	hops := histDelta(reg.HistogramValue("dynp2p_route_hops"), hops0)
	l.routeHopsP50, l.routeHopsP99 = hops.Quantile(0.50), hops.Quantile(0.99)
	if o.w.routed() {
		l.maxLinkLoad = reg.Gauge(maxLinkGauge, "").Value()
	}
	if sh := histDelta(reg.HistogramValue("dynp2p_search_hops"), search0); sh.Count > 0 {
		l.searchMsgs = float64(sh.Sum) / float64(sh.Count)
	}
	if rec != nil {
		l.spans = rec.totals(spanFrom)
		l.phaseNS = phaseCounters(st)
		for k, v := range phase0 {
			l.phaseNS[k] -= v
		}
	}
	l.digest = digest(d, st, l)
	return l, verify(o.w, d, st, l)
}

// phaseCounters reads the engine profiler's cumulative per-phase ns (empty
// when profiling is off).
func phaseCounters(st stack) map[string]int64 {
	out := map[string]int64{}
	prof := st.Engine().Profiler()
	if prof == nil {
		return out
	}
	reg := st.Engine().Telemetry()
	for _, name := range prof.Names() {
		out[name] = reg.CounterValue("dynp2p_phase_" + name + "_ns_total")
	}
	return out
}

// verify checks the run's outputs. Payload bytes are verified by the
// protocol itself (every retrieval passes its expected bytes), so a
// success is a verified read.
func verify(w workload, d *driver, st stack, l *leg) error {
	if err := d.checkAccounting(); err != nil {
		return err
	}
	if d.tally.StoresIssued == 0 || d.tally.Issued == 0 || d.tally.OK == 0 {
		return fmt.Errorf("workload did no work: %+v", d.tally)
	}
	if got, want := l.end.Engine.Rounds, st.WarmupRounds()+l.rounds; got != want {
		return fmt.Errorf("engine ran %d rounds, want %d", got, want)
	}
	if !w.routed() {
		return nil
	}
	e := st.Engine()
	rm := l.end.Route
	drops := rm.DroppedBudget + rm.DroppedQueueFull + rm.DroppedChurn + rm.DroppedDead
	if inflight := int64(e.RoutedInFlight()); rm.Sent != rm.Delivered+drops+inflight {
		return fmt.Errorf("route accounting: sent %d != delivered %d + drops %d + in flight %d",
			rm.Sent, rm.Delivered, drops, inflight)
	}
	if err := st.Overlay().CheckInvariants(e.Graph()); err != nil {
		return err
	}
	if err := e.Graph().CheckRegular(); err != nil {
		return err
	}
	if l.lambdaEnd > 0.80 {
		return fmt.Errorf("overlay.lambda_end %.3f > 0.80: repair is losing expansion", l.lambdaEnd)
	}
	return nil
}

// digest hashes the run's simulated statistics: every Stats counter, every
// op's outcome and latency, and the final copy count and committee size
// per key. A speed-only change must leave it identical.
func digest(d *driver, st stack, l *leg) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%x|%d/%d|", l.end, d.tally, d.opsHash, l.itemsAlive, l.itemsStored)
	for _, key := range d.stored {
		fmt.Fprintf(h, "%d:%d:%d,", key, st.Handler().CopyCount(key), len(st.Handler().CommitteeSlots(key)))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// result is what one process run reports.
type result struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Workers  int
	Traced   bool
	Digest   string
	Tally    tally
	Samples  int // successful retrievals behind the latency percentiles
	Rounds   int // timed rounds
	// Raw host numbers of the untraced leg, for reading beside the
	// calibrated metrics.
	RawWallS  float64
	RawSetupS float64
	ProbeMS   float64
	Probes    int
	SetupReps int
	Metrics   map[string]value
}

// runOnce performs one whole run in this process: two passes over the
// same inputs. The simulation is deterministic, so the passes do the same
// work round for round (their digests must agree) and differ only in what
// the box did to them; taking each round from the pass where it ran faster
// rejects the bursts of a noisy host, which last seconds, while the probe
// corrects for its regimes, which last minutes. In an untraced run both
// passes drive the facade; in a traced run the second is the traced leg,
// and its digest must match as well.
func runOnce(o runOpts, traced bool) (*result, error) {
	o.pr.run() // the first pass after a pause is not a measurement
	res := &result{Workload: o.w.name, Seed: o.seed, Workers: o.workers, Traced: traced}

	// A traced run reports no set-up time, so it sets up once per leg.
	plain, err := runLeg(o, nil, !traced)
	if err != nil {
		return nil, err
	}
	res.Digest, res.Tally, res.Samples, res.Rounds = plain.digest, plain.tally, len(plain.latencies), plain.rounds
	res.RawWallS, res.RawSetupS, res.ProbeMS = plain.rawWall, plain.setupRaw, plain.probeMS
	res.Probes, res.SetupReps = plain.probes, plain.setupReps

	debug.FreeOSMemory()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	second, err := runLeg(o, rec, false)
	if err != nil {
		return nil, fmt.Errorf("second pass: %w", err)
	}
	if second.digest != plain.digest {
		return nil, fmt.Errorf("sim_digest differs between two passes over one seed: %s then %s (traced %v)",
			plain.digest, second.digest, traced)
	}
	if !traced {
		res.Metrics, err = pack(endToEnd, endToEndValues(o.w, plain, second, o.pr))
		return res, err
	}
	if o.outDir != "" {
		meta := map[string]any{"workload": o.w.name, "seed": o.seed, "digest": second.digest}
		if err := rec.writeFile(filepath.Join(o.outDir, "trace-"+o.w.name+".json"), meta); err != nil {
			return nil, err
		}
	}
	res.Metrics, err = pack(perLayer, perLayerValues(o.w, plain, second))
	return res, err
}

// envelope is the calibrated wall time of the timed region with every round
// taken from the pass where it ran faster.
func envelope(a, b *leg) float64 {
	var ns float64
	for r := range a.roundNS {
		ns += min(float64(a.roundNS[r])*a.scale, float64(b.roundNS[r])*b.scale)
	}
	return ns / 1e9
}

func endToEndValues(w workload, l, second *leg, pr *probe) map[string]float64 {
	calWall := envelope(l, second)
	rounds := float64(l.rounds)
	bits := float64(l.end.Engine.BitsSent - l.start.Engine.BitsSent)
	return map[string]float64{
		"setup_s":              l.setupCal,
		"cal_rounds_per_s":     rounds / calWall,
		"cal_ok_ops_per_s":     float64(l.tally.StoresIssued+l.tally.OK) / calWall,
		"cal_cpu_ms_per_round": min(l.rawCPU*l.scale, second.rawCPU*second.scale) * 1e3 / rounds,
		"peak_rss_mb":          float64(peakRSSBytes()-int64(8*len(pr.table))) / (1 << 20),
		"allocs_per_round":     float64(l.mallocs) / rounds,
		"alloc_kb_per_round":   float64(l.allocBytes) / 1024 / rounds,
		"success_rate":         float64(l.tally.OK) / float64(l.tally.Issued),
		"retrieve_rounds_p50":  quantile(l.latencies, 0.50),
		"retrieve_rounds_p95":  quantile(l.latencies, 0.95),
		"items_alive_frac":     float64(l.itemsAlive) / float64(l.itemsStored),
		"bits_per_node_round":  bits / (float64(w.n) * rounds),
	}
}

func perLayerValues(w workload, plain, l *leg) map[string]float64 {
	rounds := float64(l.rounds)
	perRound := func(ns int64) float64 { return float64(ns) / rounds }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sp := l.spans
	roundNS := sp.dur[spanRound]
	soupNS, ovNS := sp.dur[spanSoup], sp.dur[spanOverlay]
	handleWall, handleBusy := sp.dur[spanHandle], sp.busy[spanHandle]
	joinNS := sp.busy[spanOnJoin]
	var phaseSum int64
	for _, v := range l.phaseNS {
		phaseSum += v
	}
	de := func(f func(dynp2p.Stats) int64) float64 { return float64(f(l.end) - f(l.start)) }
	sent := de(func(s dynp2p.Stats) int64 { return s.Engine.MsgsSent })
	delivered := de(func(s dynp2p.Stats) int64 { return s.Engine.MsgsDelivered })
	moves := de(func(s dynp2p.Stats) int64 { return s.Soup.Moves })
	completed := de(func(s dynp2p.Stats) int64 { return s.Soup.Completed })
	ended := completed + de(func(s dynp2p.Stats) int64 { return s.Soup.Died + s.Soup.Overdue })
	repairs := de(func(s dynp2p.Stats) int64 { return s.Overlay.Splices + s.Overlay.DirectPairs })
	rSent := de(func(s dynp2p.Stats) int64 { return s.Route.Sent })
	rFwd := de(func(s dynp2p.Stats) int64 { return s.Route.Forwards })
	rDrops := de(func(s dynp2p.Stats) int64 {
		return s.Route.DroppedBudget + s.Route.DroppedQueueFull + s.Route.DroppedChurn + s.Route.DroppedDead
	})
	enc, dec, overhead := idaSpeed(w)
	maxLat := 0
	if n := len(l.latencies); n > 0 {
		maxLat = l.latencies[n-1]
	}
	soupDev := math.Abs(float64(soupNS - l.phaseNS["soup"]))

	return map[string]float64{
		"simnet.round_ns":                perRound(roundNS),
		"simnet.self_ns":                 perRound(roundNS - soupNS - ovNS - handleWall - joinNS),
		"simnet.churn_ns":                perRound(l.phaseNS["churn"] - joinNS),
		"simnet.deliver_ns":              perRound(l.phaseNS["deliver"]),
		"simnet.route_ns":                perRound(l.phaseNS["route"]),
		"simnet.unattributed_ratio":      1 - ratio(float64(phaseSum), float64(roundNS)),
		"simnet.msgs_sent":               sent,
		"simnet.msgs_delivered":          delivered,
		"simnet.msgs_churn_dropped":      de(func(s dynp2p.Stats) int64 { return s.Engine.MsgsDropped }),
		"simnet.delivered_ratio":         ratio(delivered, sent),
		"simnet.parallel_efficiency":     ratio(float64(handleBusy), float64(handleWall)*float64(pinnedWorkers)),
		"churn.replacements":             de(func(s dynp2p.Stats) int64 { return s.Engine.Replacements }),
		"expander.topology_ns":           perRound(l.phaseNS["topology"]),
		"walks.step_ns":                  perRound(soupNS),
		"walks.token_moves":              moves,
		"walks.ns_per_move":              ratio(float64(soupNS), moves),
		"walks.survival_ratio":           ratio(completed, ended),
		"overlay.step_ns":                perRound(ovNS),
		"overlay.repairs":                repairs,
		"overlay.ns_per_repair":          ratio(float64(ovNS), repairs),
		"overlay.lambda_end":             l.lambdaEnd,
		"route.step_ns":                  perRound(l.phaseNS["routed"]),
		"route.sent":                     rSent,
		"route.forwards":                 rFwd,
		"route.ns_per_forward":           ratio(float64(l.phaseNS["routed"]), rFwd),
		"route.parked":                   de(func(s dynp2p.Stats) int64 { return s.Route.Parked }),
		"route.drop_ratio":               ratio(rDrops, rSent),
		"route.hops_p50":                 float64(l.routeHopsP50),
		"route.hops_p99":                 float64(l.routeHopsP99),
		"route.max_link_load":            float64(l.maxLinkLoad),
		"protocol.handle_busy_ns":        perRound(handleBusy),
		"protocol.handle_wall_ns":        perRound(handleWall),
		"protocol.onjoin_ns":             perRound(joinNS),
		"protocol.request_ns":            perRound(sp.dur[spanRequest]),
		"protocol.drain_ns":              perRound(sp.dur[spanDrain]),
		"protocol.committees_created":    de(func(s dynp2p.Stats) int64 { return s.Proto.CommitteesCreated }),
		"protocol.handovers":             de(func(s dynp2p.Stats) int64 { return s.Proto.Handovers }),
		"protocol.copies_per_item":       ratio(float64(l.copiesTotal), float64(l.itemsStored)),
		"protocol.search_msgs_mean":      l.searchMsgs,
		"protocol.cache_hit_ratio":       ratio(float64(l.tally.CachedOK), float64(l.tally.OK)),
		"protocol.cache_serves":          de(func(s dynp2p.Stats) int64 { return s.Proto.CacheServed }),
		"protocol.cache_seeds":           de(func(s dynp2p.Stats) int64 { return s.Proto.CacheSeeds }),
		"ida.encode_mb_s":                enc,
		"ida.decode_mb_s":                dec,
		"ida.overhead":                   overhead,
		"telemetry.trace_overhead_ratio": l.rawWall*l.scale/(plain.rawWall*plain.scale) - 1,
		"telemetry.soup_xcheck":          ratio(soupDev, float64(soupNS)),
		"driver.issue_ns":                perRound(l.issueNS),
		"box.probe_ms":                   l.probeMS,
		"raw.rounds_per_s":               rounds / plain.rawWall,
		"raw.cpu_ms_per_round":           plain.rawCPU * 1e3 / rounds,
		"go.gc_cpu_frac":                 l.gcCPUFrac,
		"go.num_gc":                      float64(l.numGC),
		"sim.retrievals_issued":          float64(l.tally.Issued),
		"sim.retrievals_ok":              float64(l.tally.OK),
		"sim.retrieve_rounds_max":        float64(maxLat),
	}
}

// idaSpeed times Coder.Encode/Decode directly at the workload's K,
// committee size and item length. Zero when the workload stores plain
// copies.
func idaSpeed(w workload) (encMBs, decMBs, overhead float64) {
	if w.erasureK == 0 {
		return 0, 0, 0
	}
	// Committee size is a pure function of n, derived as the facade does.
	// The run has already coded with these parameters, so a failure here
	// or in Decode below is a bug.
	c, err := ida.New(w.erasureK, protocol.DefaultParams(w.n, walks.DefaultParams(w.n).WalkLength).CommitteeSize)
	if err != nil {
		panic("benchmark: " + err.Error())
	}
	item := w.itemData(keyFor(0))
	const iters = 200
	var pieces []ida.Piece
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		pieces = c.Encode(item)
	}
	enc := time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		// The last K pieces: none of the systematic-looking first rows.
		if _, err := c.Decode(pieces[len(pieces)-w.erasureK:], len(item)); err != nil {
			panic("benchmark: " + err.Error())
		}
	}
	dec := time.Since(t0).Seconds()
	mb := float64(iters*len(item)) / 1e6
	return mb / enc, mb / dec, float64(c.TotalStoredBytes(len(item))) / float64(len(item))
}

// histDelta returns the bucket-wise difference a - b: the histogram of
// observations recorded between the two snapshots.
func histDelta(a, b telemetry.HistValue) telemetry.HistValue {
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	a.Count -= b.Count
	a.Sum -= b.Sum
	return a
}
