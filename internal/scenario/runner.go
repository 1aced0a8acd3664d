package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dynp2p"
	"dynp2p/internal/rng"
	"dynp2p/internal/telemetry"
)

// Options configures a Run beyond the Spec itself.
type Options struct {
	// Trace, when non-nil, receives one JSON object per simulated round
	// (JSONL). Trace output is deterministic in the Spec.
	Trace io.Writer
	// OpTrace, when non-nil, receives one JSON object per traced
	// operation lifecycle event (start/hop/done JSONL) from the
	// telemetry tracer. Deterministic in the Spec.
	OpTrace io.Writer
	// Metrics, when non-nil, receives a Prometheus text snapshot of the
	// full telemetry registry after the run.
	Metrics io.Writer
	// PhaseProf, when non-nil, enables the engine's round-phase profiler
	// and receives its per-round JSONL stream. Wall-clock timing: NOT
	// deterministic, diagnostics only.
	PhaseProf io.Writer
}

// TraceRecord is one line of the per-round JSONL trace. Every counter
// field is a per-round delta, not a cumulative total: Churned, Msgs,
// FaultDrop, Delayed, Repairs, and the Ops*/HopEvents trio are all
// computed as differences of cumulative engine/telemetry counters across
// the round, while Stores/Retrieves/Done/OK/Lost count this round's
// events directly. Lambda is a point sample, present only on rounds the
// spectral telemetry measured one.
type TraceRecord struct {
	Round     int    `json:"round"`
	Phase     string `json:"phase"`
	Churned   int    `json:"churned"`
	Stores    int    `json:"stores"`    // store requests issued this round
	Retrieves int    `json:"retrieves"` // retrievals issued this round
	Done      int    `json:"done"`      // retrievals completed this round
	OK        int    `json:"ok"`        // ... of which succeeded
	Lost      int    `json:"lost"`      // searchers churned out this round
	Msgs      int64  `json:"msgs"`      // messages sent this round
	FaultDrop int64  `json:"faultDrop"` // fault-model drops this round
	Delayed   int64  `json:"delayed"`   // fault-model delays this round
	// Repairs counts overlay port-pair repairs this round (self-healing
	// topologies only); Lambda is the spectral-gap estimate, present only
	// on rounds where the topology block's cadence measured one.
	Repairs int64    `json:"repairs,omitempty"`
	Lambda  *float64 `json:"lambda,omitempty"`
	// Lifecycle-tracer activity this round: sampled operations started
	// and resolved, and hop (message-delivery) events recorded.
	OpsStarted int64 `json:"opsStarted,omitempty"`
	OpsDone    int64 `json:"opsDone,omitempty"`
	HopEvents  int64 `json:"hopEvents,omitempty"`
	// Hot-key cache activity this round: retrievals resolved from a
	// cached copy, and replica-side serves of cached bytes. Always zero
	// when caching is off.
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheServed int64 `json:"cacheServed,omitempty"`
	// Overlay-routing activity this round (always zero under the
	// oracle): per-edge forwards, walkers parked at congested nodes, and
	// routed messages dropped (budget, queue overflow, churn, or dead
	// target).
	RoutedFwd    int64 `json:"routedFwd,omitempty"`
	RoutedQueued int64 `json:"routedQueued,omitempty"`
	RoutedDrops  int64 `json:"routedDrops,omitempty"`
}

// routeDrops sums a route snapshot's four drop counters.
func routeDrops(m dynp2p.RouteMetrics) int64 {
	return m.DroppedBudget + m.DroppedQueueFull + m.DroppedChurn + m.DroppedDead
}

// request tracks one in-flight retrieval issued by the runner.
type request struct {
	phase  int // issuing phase index
	issued int // issuing round
}

// reqKey identifies an active retrieval: the protocol allows one active
// search per (node, key).
type reqKey struct {
	id  dynp2p.NodeID
	key uint64
}

// segMeta records a finished timeline segment and its engine-metric deltas.
type segMeta struct {
	name    string
	rounds  int
	phase   int // index into Spec.Phases, or -1 for warm-up/drain
	repl    int64
	fdrop   int64
	fdelay  int64
	repairs int64
	lamMax  float64 // largest λ measured during the segment (0 = none)
	// Overlay-routing deltas for the segment (zero under the oracle):
	// hop-count quantiles over messages delivered in it, drops, and the
	// largest per-node forward count in any of its rounds.
	hopsP50 int64
	hopsP99 int64
	rdrops  int64
	maxLink int64
}

type runner struct {
	spec Spec
	nw   *dynp2p.Network
	// wr drives the workload: arrival counts, issuer choice, key
	// popularity. Independent of the adversary and protocol streams.
	wr    *rng.Stream
	zipf  *rng.Zipf
	trace io.Writer

	payload map[uint64][]byte // key -> stored bytes, for verification
	stored  []uint64          // keys stored so far, in store order
	nextKey int

	outstanding map[reqKey]request

	accums []sloAccum // one per spec phase
	total  sloAccum

	prev      dynp2p.Stats // snapshot for per-round deltas
	prevTrace [5]int64     // ops started / done / hop events / cache hits / cache serves
	segs      []segMeta
}

// Run executes the spec and returns its report. The run is deterministic
// in the Spec: same spec, same report and trace, byte for byte.
func Run(spec Spec, opt Options) (*Report, error) {
	r, err := run(spec, opt)
	if err != nil {
		return nil, err
	}
	return r.report(), nil
}

// run executes the spec and returns the finished runner, network included.
func run(spec Spec, opt Options) (*runner, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	strat, err := spec.strategy()
	if err != nil {
		return nil, err
	}
	edges, err := spec.edgeMode()
	if err != nil {
		return nil, err
	}
	nw := dynp2p.New(dynp2p.Config{
		N: spec.N, Degree: spec.Degree, Seed: spec.Seed,
		ChurnLaw: spec.schedule(), Strategy: strat,
		ErasureK: spec.ErasureK,
		Fault:    spec.Fault.model(),
		Cache:    spec.Cache.config(),
		Routing:  spec.Routing.config(),
		Edges:    edges, SpectralEvery: spec.Topology.SpectralEvery,
		// Scenario runs trace every operation: the report's hop-count and
		// rounds-to-resolve distributions come from the lifecycle tracer.
		TraceSampleEvery: 1,
		Profile:          opt.PhaseProf != nil,
	})
	if opt.OpTrace != nil {
		nw.Tracer().StreamTo(opt.OpTrace)
	}
	if opt.PhaseProf != nil {
		nw.Profiler().StreamTo(opt.PhaseProf)
	}
	r := &runner{
		spec:        spec,
		nw:          nw,
		wr:          rng.Derive(spec.Seed, 0x3ce7a410),
		zipf:        rng.NewZipf(spec.Keys, spec.ZipfS),
		trace:       opt.Trace,
		payload:     make(map[uint64][]byte, spec.Keys),
		outstanding: make(map[reqKey]request),
		accums:      make([]sloAccum, len(spec.Phases)),
	}

	// Warm-up: let the walk soup mix under phase 0's churn, no workload
	// yet.
	r.runSegment(-1, "warmup", spec.WarmupRounds(), Workload{})
	for i, p := range spec.Phases {
		r.runSegment(i, p.Name, p.Rounds, p.Load)
	}
	// Drain: workload stops, churn goes quiet (the schedule has ended);
	// in-flight retrievals finish or expire within one search TTL.
	r.runSegment(-1, "drain", spec.DrainRounds(), Workload{})

	// Anything still outstanding never reported (its issuer survived but
	// e.g. never assembled a search committee): count as lost.
	for k, req := range r.outstanding {
		r.accums[req.phase].slo.Lost++
		r.total.slo.Lost++
		delete(r.outstanding, k)
	}

	if opt.OpTrace != nil {
		if err := nw.Tracer().Flush(); err != nil {
			return nil, fmt.Errorf("scenario %q: op trace: %w", spec.Name, err)
		}
	}
	if opt.PhaseProf != nil {
		if err := nw.Profiler().Flush(); err != nil {
			return nil, fmt.Errorf("scenario %q: phase profile: %w", spec.Name, err)
		}
	}
	if opt.Metrics != nil {
		if err := telemetry.WritePrometheus(opt.Metrics, nw.Telemetry().Snapshot()); err != nil {
			return nil, fmt.Errorf("scenario %q: metrics snapshot: %w", spec.Name, err)
		}
	}
	return r, nil
}

// runSegment simulates rounds with the given workload, attributing issued
// requests to spec phase pi (-1 = none).
func (r *runner) runSegment(pi int, name string, rounds int, load Workload) {
	start := r.nw.Stats()
	routed := r.spec.Routing.config().Mode == dynp2p.RoutingOverlay
	reg := r.nw.Telemetry()
	var hopsStart telemetry.HistValue
	if routed {
		// Per-phase hop quantiles come from the per-search true overlay
		// path length (not the per-message hop histogram, whose tail is
		// dominated by background committee traffic in every phase).
		hopsStart = reg.HistogramValue("dynp2p_search_path_hops")
		// The max-link gauge is a running SetMax; resetting it at segment
		// start makes the segment's reading a true per-phase maximum.
		reg.Gauge("dynp2p_route_max_link_load", "largest per-slot forward count in any single round").Set(0)
	}
	var lamMax float64
	for i := 0; i < rounds; i++ {
		stores := r.issueStores(pi, load.StoreRate)
		retrieves := r.issueRetrieves(pi, load.RetrieveRate)
		r.nw.Run(1)
		if ovm := r.nw.Overlay().Metrics(); ovm.LambdaRound == r.nw.Round()-1 && ovm.Lambda > lamMax {
			lamMax = ovm.Lambda
		}
		done, ok := r.drainResults()
		lost := r.reapLost()
		if r.trace != nil {
			r.writeTrace(name, stores, retrieves, done, ok, lost)
		}
	}
	end := r.nw.Stats()
	seg := segMeta{
		name: name, rounds: rounds, phase: pi,
		repl:   end.Engine.Replacements - start.Engine.Replacements,
		fdrop:  end.Engine.MsgsFaultDropped - start.Engine.MsgsFaultDropped,
		fdelay: end.Engine.MsgsDelayed - start.Engine.MsgsDelayed,
		repairs: end.Overlay.Splices + end.Overlay.DirectPairs -
			start.Overlay.Splices - start.Overlay.DirectPairs,
		lamMax: lamMax,
	}
	if routed {
		hops := histDelta(reg.HistogramValue("dynp2p_search_path_hops"), hopsStart)
		seg.hopsP50 = hops.Quantile(0.50)
		seg.hopsP99 = hops.Quantile(0.99)
		seg.rdrops = routeDrops(end.Route) - routeDrops(start.Route)
		seg.maxLink = reg.Gauge("dynp2p_route_max_link_load", "largest per-slot forward count in any single round").Value()
	}
	r.segs = append(r.segs, seg)
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

// issueStores issues Poisson(rate) store requests. Each stores the next
// unstored key of the universe; once every key is stored further arrivals
// are counted as skipped. Stores are issued from old nodes (best of four
// random slots by join round): the paper's Theorem 3 guarantees storage
// for nodes that have been in the network a while, not for newcomers.
func (r *runner) issueStores(pi int, rate float64) int {
	n := r.poisson(rate)
	issued := 0
	for i := 0; i < n; i++ {
		if pi < 0 {
			continue
		}
		if r.nextKey >= r.spec.Keys {
			r.accums[pi].slo.StoresSkipped++
			r.total.slo.StoresSkipped++
			continue
		}
		key := keyFor(r.nextKey)
		data := r.itemData(key)
		r.nextKey++
		r.payload[key] = data
		r.stored = append(r.stored, key)
		r.nw.Store(r.pickOldSlot(), key, data)
		r.accums[pi].slo.StoresIssued++
		r.total.slo.StoresIssued++
		issued++
	}
	return issued
}

// issueRetrieves issues Poisson(rate) retrievals. Keys are drawn by Zipf
// popularity rank over the stored set; issuers are uniform random slots
// (retrieval is an any-node operation). An arrival that finds nothing
// stored yet, or whose candidate issuers are all busy retrieving the same
// key, is counted as skipped.
func (r *runner) issueRetrieves(pi int, rate float64) int {
	n := r.poisson(rate)
	issued := 0
	for i := 0; i < n; i++ {
		if pi < 0 {
			continue
		}
		if len(r.stored) == 0 {
			r.accums[pi].slo.Skipped++
			r.total.slo.Skipped++
			continue
		}
		key := r.stored[r.zipf.Next(r.wr)%len(r.stored)]
		placed := false
		for try := 0; try < 8; try++ {
			slot := r.wr.Intn(r.spec.N)
			k := reqKey{id: r.nw.IDAt(slot), key: key}
			if _, busy := r.outstanding[k]; busy {
				continue
			}
			r.outstanding[k] = request{phase: pi, issued: r.nw.Round()}
			r.nw.Retrieve(slot, key, r.payload[key])
			placed = true
			break
		}
		if placed {
			r.accums[pi].slo.Issued++
			r.total.slo.Issued++
			issued++
		} else {
			r.accums[pi].slo.Skipped++
			r.total.slo.Skipped++
		}
	}
	return issued
}

// drainResults consumes completed retrievals and records their SLOs
// against the phase that issued them.
func (r *runner) drainResults() (done, ok int) {
	for _, res := range r.nw.Results() {
		k := reqKey{id: res.Searcher, key: res.Key}
		req, known := r.outstanding[k]
		if !known {
			continue // not issued by this runner (defensive)
		}
		delete(r.outstanding, k)
		locate, complete := -1, -1
		if res.Found >= 0 {
			locate = res.Found - res.Start
		}
		if res.Done >= 0 {
			complete = res.Done - res.Start
		}
		r.accums[req.phase].record(locate, complete, res.Success, res.Cached)
		r.total.record(locate, complete, res.Success, res.Cached)
		done++
		if res.Success {
			ok++
		}
	}
	return done, ok
}

// reapLost removes outstanding retrievals whose searcher has been churned
// out: departed nodes report nothing, the model's failure mode.
func (r *runner) reapLost() int {
	lost := 0
	for k, req := range r.outstanding {
		if r.nw.IsLive(k.id) {
			continue
		}
		delete(r.outstanding, k)
		r.accums[req.phase].slo.Lost++
		r.total.slo.Lost++
		lost++
	}
	return lost
}

func (r *runner) writeTrace(phase string, stores, retrieves, done, ok, lost int) {
	cur := r.nw.Stats()
	rec := TraceRecord{
		Round:     r.nw.Round() - 1,
		Phase:     phase,
		Churned:   int(cur.Engine.Replacements - r.prev.Engine.Replacements),
		Stores:    stores,
		Retrieves: retrieves,
		Done:      done,
		OK:        ok,
		Lost:      lost,
		Msgs:      cur.Engine.MsgsSent - r.prev.Engine.MsgsSent,
		FaultDrop: cur.Engine.MsgsFaultDropped - r.prev.Engine.MsgsFaultDropped,
		Delayed:   cur.Engine.MsgsDelayed - r.prev.Engine.MsgsDelayed,
		Repairs: cur.Overlay.Splices + cur.Overlay.DirectPairs -
			r.prev.Overlay.Splices - r.prev.Overlay.DirectPairs,
	}
	if cur.Overlay.LambdaRound == rec.Round {
		l := cur.Overlay.Lambda
		rec.Lambda = &l
	}
	reg := r.nw.Telemetry()
	ops := reg.CounterValue("dynp2p_trace_ops_total")
	dones := reg.CounterValue("dynp2p_trace_ops_done_total")
	hops := reg.CounterValue("dynp2p_trace_hop_events_total")
	chits := reg.CounterValue("dynp2p_cache_hits_total")
	cserv := reg.CounterValue("dynp2p_cache_served_total")
	rec.OpsStarted = ops - r.prevTrace[0]
	rec.OpsDone = dones - r.prevTrace[1]
	rec.HopEvents = hops - r.prevTrace[2]
	rec.CacheHits = chits - r.prevTrace[3]
	rec.CacheServed = cserv - r.prevTrace[4]
	r.prevTrace = [5]int64{ops, dones, hops, chits, cserv}
	rec.RoutedFwd = cur.Route.Forwards - r.prev.Route.Forwards
	rec.RoutedQueued = cur.Route.Parked - r.prev.Route.Parked
	rec.RoutedDrops = routeDrops(cur.Route) - routeDrops(r.prev.Route)
	r.prev = cur
	b, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("scenario: trace marshal: %v", err))
	}
	r.trace.Write(append(b, '\n'))
}

func (r *runner) report() *Report {
	rep := &Report{
		Spec:   r.spec,
		Rounds: r.nw.Round(),
		Total:  r.total.finalize(),
		Stats:  r.nw.Stats(),
	}
	for _, key := range r.stored {
		rep.Items = append(rep.Items, ItemState{
			Key: key, Copies: r.nw.CopyCount(key),
			Landmarks: r.nw.LandmarkCount(key), Committee: r.nw.CommitteeSize(key),
		})
	}
	reg := r.nw.Telemetry()
	rep.Wire = wireByKind(reg.Snapshot())
	for name, dst := range map[string]**telemetry.HistValue{
		"dynp2p_search_hops":              &rep.SearchHops,
		"dynp2p_search_rounds_to_resolve": &rep.SearchRounds,
		"dynp2p_store_hops":               &rep.StoreHops,
		"dynp2p_store_rounds_to_settle":   &rep.StoreRounds,
		"dynp2p_search_rounds_cached":     &rep.CachedRounds,
		"dynp2p_search_rounds_uncached":   &rep.UncachedRounds,
		"dynp2p_route_hops":               &rep.RouteHops,
		"dynp2p_route_queue_depth":        &rep.RouteQueueDepth,
		"dynp2p_search_path_hops":         &rep.SearchPath,
	} {
		if hv := reg.HistogramValue(name); hv.Count > 0 {
			h := hv
			*dst = &h
		}
	}
	for _, seg := range r.segs {
		pr := PhaseReport{
			Name: seg.name, Rounds: seg.rounds,
			Replacements: seg.repl, FaultDropped: seg.fdrop, Delayed: seg.fdelay,
			Repairs: seg.repairs, LambdaMax: seg.lamMax,
			RouteHopsP50: seg.hopsP50, RouteHopsP99: seg.hopsP99,
			RouteDrops: seg.rdrops, MaxLinkLoad: seg.maxLink,
		}
		if seg.phase >= 0 {
			pr.SLO = r.accums[seg.phase].finalize()
		}
		rep.Phases = append(rep.Phases, pr)
	}
	return rep
}

// pickOldSlot returns the oldest of four random slots (power-of-choices
// bias toward Core nodes without scanning the whole network).
func (r *runner) pickOldSlot() int {
	e := r.nw.Engine()
	best := r.wr.Intn(r.spec.N)
	bestJoin := e.JoinRound(best)
	for i := 0; i < 3; i++ {
		s := r.wr.Intn(r.spec.N)
		if jr := e.JoinRound(s); jr < bestJoin {
			best, bestJoin = s, jr
		}
	}
	return best
}

// poisson draws a Poisson(lambda) variate (Knuth's method; fine for the
// per-round arrival rates scenarios use).
func (r *runner) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.wr.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// itemData builds the deterministic payload for a key.
func (r *runner) itemData(key uint64) []byte {
	buf := make([]byte, r.spec.ItemLen)
	for j := range buf {
		buf[j] = byte(key + uint64(j)*131)
	}
	return buf
}

// keyFor maps a key index to its item key (offset so keys are visibly
// distinct from slot numbers in traces).
func keyFor(i int) uint64 { return uint64(100 + i) }
