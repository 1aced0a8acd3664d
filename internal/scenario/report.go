package scenario

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"dynp2p"
	"dynp2p/internal/stats"
	"dynp2p/internal/telemetry"
)

// SLO aggregates per-request service-level outcomes for a slice of the
// run (one phase, or the whole run). A retrieval is attributed to the
// phase that issued it, no matter when it completes.
type SLO struct {
	// Store-side counts. A store is "skipped" when the key universe is
	// exhausted (every key already stored).
	StoresIssued  int `json:"storesIssued"`
	StoresSkipped int `json:"storesSkipped,omitempty"`

	// Retrieval-side counts. "Skipped" retrieval arrivals found nothing
	// stored yet (or every candidate issuer busy with the same key);
	// "lost" searchers were churned out before reporting an outcome.
	Issued    int `json:"issued"`
	Skipped   int `json:"skipped,omitempty"`
	Completed int `json:"completed"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Lost      int `json:"lost,omitempty"`

	// Latency quantiles in rounds, over successful retrievals only.
	// Locate is request -> storage-committee roster learned; Complete is
	// request -> item bytes reconstructed and verified.
	LocateP50   int `json:"locateP50"`
	LocateP95   int `json:"locateP95"`
	LocateP99   int `json:"locateP99"`
	CompleteP50 int `json:"completeP50"`
	CompleteP95 int `json:"completeP95"`
	CompleteP99 int `json:"completeP99"`
	CompleteMax int `json:"completeMax"`

	// Hot-key cache outcomes: CacheHits counts retrievals resolved from
	// a cached copy (own-node hit or a replica's serve beating the
	// committee path); CacheServedP50 is the complete-latency P50 over
	// just those. Both zero when caching is off.
	CacheHits      int `json:"cacheHits,omitempty"`
	CacheServedP50 int `json:"cacheServedP50,omitempty"`
}

// SuccessRate returns succeeded / completed (1 when nothing completed, so
// an idle phase does not read as an outage).
func (s SLO) SuccessRate() float64 {
	if s.Completed == 0 {
		return 1
	}
	return float64(s.Succeeded) / float64(s.Completed)
}

// sloAccum is the mutable accumulator behind an SLO.
type sloAccum struct {
	slo      SLO
	locate   stats.Counter
	complete stats.Counter
	cached   stats.Counter // complete latency over cache-resolved retrievals
}

func (a *sloAccum) record(locate, complete int, success, cached bool) {
	a.slo.Completed++
	if !success {
		a.slo.Failed++
		return
	}
	a.slo.Succeeded++
	if locate >= 0 {
		a.locate.Add(locate)
	}
	if complete >= 0 {
		a.complete.Add(complete)
		if cached {
			a.cached.Add(complete)
		}
	}
	if cached {
		a.slo.CacheHits++
	}
}

func (a *sloAccum) finalize() SLO {
	s := a.slo
	s.LocateP50 = a.locate.Quantile(0.50)
	s.LocateP95 = a.locate.Quantile(0.95)
	s.LocateP99 = a.locate.Quantile(0.99)
	s.CompleteP50 = a.complete.Quantile(0.50)
	s.CompleteP95 = a.complete.Quantile(0.95)
	s.CompleteP99 = a.complete.Quantile(0.99)
	s.CompleteMax = a.complete.Max()
	s.CacheServedP50 = a.cached.Quantile(0.50)
	return s
}

// PhaseReport is the outcome of one phase.
type PhaseReport struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	// Replacements is the number of churn replacements during the phase;
	// FaultDropped/Delayed count the fault model's interventions on
	// messages sent during it.
	Replacements int64 `json:"replacements"`
	FaultDropped int64 `json:"faultDropped"`
	Delayed      int64 `json:"delayed"`
	// Repairs counts self-healing overlay port-pair repairs during the
	// phase; LambdaMax is the largest spectral-gap estimate measured in
	// it (0 when telemetry is off).
	Repairs   int64   `json:"repairs,omitempty"`
	LambdaMax float64 `json:"lambdaMax,omitempty"`
	// Overlay-routing outcomes for the phase (zero under the oracle):
	// quantiles of true overlay path length per search resolved during
	// it (total hops across every message the search generated), routed
	// drops, and the largest per-node forward count in any of its rounds.
	RouteHopsP50 int64 `json:"routeHopsP50,omitempty"`
	RouteHopsP99 int64 `json:"routeHopsP99,omitempty"`
	RouteDrops   int64 `json:"routeDrops,omitempty"`
	MaxLinkLoad  int64 `json:"maxLinkLoad,omitempty"`
	SLO          SLO   `json:"slo"`
}

// ItemState is one stored key's state when the run ended: live copies (or
// IDA pieces), storage landmarks advertising it, and live members of its
// storage committee. A key lost to churn reads as zeros.
type ItemState struct {
	Key       uint64 `json:"key"`
	Copies    int    `json:"copies"`
	Landmarks int    `json:"landmarks"`
	Committee int    `json:"committee"`
}

// KindWire is what the handlers sent of one message kind over the run.
type KindWire struct {
	Kind string `json:"kind"`
	Msgs int64  `json:"msgs"`
	Bits int64  `json:"bits"`
}

// wireByKind reads the per-kind wire counters (dynp2p_proto_kind_<kind>_
// {msgs,bits}_total) out of a snapshot: every kind that sent anything,
// most bits first.
func wireByKind(snap []telemetry.MetricValue) []KindWire {
	var out []KindWire
	for _, mv := range snap {
		name, ok := strings.CutPrefix(mv.Name, "dynp2p_proto_kind_")
		if !ok || mv.Value == 0 {
			continue
		}
		kind, msgs := strings.CutSuffix(name, "_msgs_total")
		if !msgs {
			if kind, ok = strings.CutSuffix(name, "_bits_total"); !ok {
				continue
			}
		}
		i := slices.IndexFunc(out, func(k KindWire) bool { return k.Kind == kind })
		if i < 0 {
			i = len(out)
			out = append(out, KindWire{Kind: kind})
		}
		if msgs {
			out[i].Msgs = mv.Value
		} else {
			out[i].Bits = mv.Value
		}
	}
	slices.SortStableFunc(out, func(a, b KindWire) int { return cmp.Compare(b.Bits, a.Bits) })
	return out
}

// Report is the final result of a scenario run. It is deterministic in
// the Spec: two runs of the same spec render byte-identical reports.
type Report struct {
	Spec   Spec          `json:"spec"`
	Rounds int           `json:"rounds"` // total rounds simulated (incl. warm-up and drain)
	Phases []PhaseReport `json:"phases"`
	Total  SLO           `json:"total"`
	Stats  dynp2p.Stats  `json:"stats"`
	// Wire splits the run's traffic by message kind, most bits first.
	Wire []KindWire `json:"wire,omitempty"`
	// Items lists every key the run stored, in store order.
	Items []ItemState `json:"items,omitempty"`
	// Per-operation distributions from the lifecycle tracer (scenario
	// runs trace every store and search): delivered protocol messages
	// per operation, and rounds from issue to resolution/settlement.
	// Nil when no operation of that kind completed.
	SearchHops   *telemetry.HistValue `json:"searchHops,omitempty"`
	SearchRounds *telemetry.HistValue `json:"searchRounds,omitempty"`
	StoreHops    *telemetry.HistValue `json:"storeHops,omitempty"`
	StoreRounds  *telemetry.HistValue `json:"storeRounds,omitempty"`
	// Search rounds-to-resolve split by resolution path, present only
	// when caching produced/skipped hits respectively.
	CachedRounds   *telemetry.HistValue `json:"cachedRounds,omitempty"`
	UncachedRounds *telemetry.HistValue `json:"uncachedRounds,omitempty"`
	// Overlay-routing distributions, present only under routed modes:
	// forwards per delivered message, queue depth at parking events, and
	// true overlay path length accumulated per traced search.
	RouteHops       *telemetry.HistValue `json:"routeHops,omitempty"`
	RouteQueueDepth *telemetry.HistValue `json:"routeQueueDepth,omitempty"`
	SearchPath      *telemetry.HistValue `json:"searchPath,omitempty"`
}

// Fprint renders the report as an aligned text table (the idiom of
// internal/expt tables).
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== scenario %s: n=%d seed=%d strategy=%s", r.Spec.Name, r.Spec.N, r.Spec.Seed, r.Spec.Strategy)
	if r.Spec.ErasureK > 0 {
		fmt.Fprintf(w, " erasureK=%d", r.Spec.ErasureK)
	}
	fmt.Fprintf(w, " ==\n")
	fmt.Fprintf(w, "%d phases over %d rounds (incl. %d warm-up, %d drain)\n\n",
		len(r.Spec.Phases), r.Rounds, r.Spec.WarmupRounds(), r.Spec.DrainRounds())

	routed := r.Spec.Routing.config().Mode == dynp2p.RoutingOverlay
	header := []string{"phase", "rounds", "churned", "stores", "retr", "ok", "fail", "lost", "succ%", "p50", "p95", "p99", "cHit", "cP50"}
	if routed {
		header = append(header, "hopP50", "hopP99", "rDrop", "maxLink")
	}
	rows := make([][]string, 0, len(r.Phases)+1)
	for _, p := range r.Phases {
		row := phaseRow(p.Name, p.Rounds, p.Replacements, p.SLO)
		if routed {
			row = append(row, routedCells(p.RouteHopsP50, p.RouteHopsP99, p.RouteDrops, p.MaxLinkLoad)...)
		}
		rows = append(rows, row)
	}
	totalRounds := 0
	var totalRepl, totalRDrops, totalMaxLink int64
	for _, p := range r.Phases {
		totalRounds += p.Rounds
		totalRepl += p.Replacements
		totalRDrops += p.RouteDrops
		if p.MaxLinkLoad > totalMaxLink {
			totalMaxLink = p.MaxLinkLoad
		}
	}
	total := phaseRow("TOTAL", totalRounds, totalRepl, r.Total)
	if routed {
		var hp50, hp99 int64
		if r.SearchPath != nil {
			hp50, hp99 = r.SearchPath.Quantile(0.50), r.SearchPath.Quantile(0.99)
		}
		total = append(total, routedCells(hp50, hp99, totalRDrops, totalMaxLink)...)
	}
	rows = append(rows, total)
	printAligned(w, header, rows)

	st := r.Stats
	fmt.Fprintf(w, "\ntraffic: %d msgs sent, %d delivered, %d churn-dropped, %d fault-dropped, %d delayed\n",
		st.Engine.MsgsSent, st.Engine.MsgsDelivered, st.Engine.MsgsDropped,
		st.Engine.MsgsFaultDropped, st.Engine.MsgsDelayed)
	if st.Engine.Rounds > 0 {
		fmt.Fprintf(w, "load: %.1f bits/node/round mean, %d bits max per node-round\n",
			float64(st.Engine.BitsSent)/float64(r.Spec.N)/float64(st.Engine.Rounds),
			st.Engine.MaxNodeBitsRound)
	}
	for _, k := range r.Wire {
		perOK := "-"
		if r.Total.Succeeded > 0 {
			perOK = fmt.Sprintf("%.0f", float64(k.Bits)/float64(r.Total.Succeeded))
		}
		fmt.Fprintf(w, "  %-9s %9d msgs %13d bits %5.1f%%  %s bits/ok retrieve\n",
			k.Kind, k.Msgs, k.Bits, 100*float64(k.Bits)/float64(st.Engine.BitsSent), perOK)
	}
	if r.Spec.ErasureK > 0 {
		fmt.Fprintf(w, "ida: recoded %d, lost %d\n", st.Proto.IDARecoded, st.Proto.IDALost)
	}
	if ov := st.Overlay; ov.PortsSevered > 0 || ov.SpectralRounds > 0 {
		fmt.Fprintf(w, "topology: %d edges severed by churn, %d sample splices, %d direct pairs",
			ov.PortsSevered/2, ov.Splices, ov.DirectPairs)
		if ov.SpectralRounds > 0 {
			fmt.Fprintf(w, "; λ last %.3f, max %.3f (%d rounds measured)",
				ov.Lambda, ov.LambdaMax, ov.SpectralRounds)
		}
		fmt.Fprintln(w)
		if ov.SpectralRounds > 0 {
			fmt.Fprintf(w, "λmax by phase:")
			for _, p := range r.Phases {
				if p.LambdaMax > 0 {
					fmt.Fprintf(w, " %s=%.3f", p.Name, p.LambdaMax)
				}
			}
			fmt.Fprintln(w)
		}
	}
	soupTotal := st.Soup.Completed + st.Soup.Died
	if soupTotal > 0 {
		fmt.Fprintf(w, "soup: %d walks completed of %d finished (%.1f%% survival)\n",
			st.Soup.Completed, soupTotal, 100*float64(st.Soup.Completed)/float64(soupTotal))
	}
	fmt.Fprintf(w, "committees: %d created, %d handovers (%d by fallback leaders), %d resignations; churn: %d replacements\n",
		st.Proto.CommitteesCreated, st.Proto.Handovers, st.Proto.FallbackHandovers, st.Proto.Resignations, st.Engine.Replacements)
	if len(r.Items) > 0 {
		fmt.Fprintf(w, "items: %d stored, state at end of run\n", len(r.Items))
		for _, it := range r.Items {
			fmt.Fprintf(w, "  item %d: copies=%d landmarks=%d committee=%d\n", it.Key, it.Copies, it.Landmarks, it.Committee)
		}
	}
	if pc := st.Proto; pc.CacheInserts > 0 || pc.CacheHits > 0 {
		rate := 0.0
		if r.Total.Succeeded > 0 {
			rate = 100 * float64(r.Total.CacheHits) / float64(r.Total.Succeeded)
		}
		fmt.Fprintf(w, "cache: %d hits (%.1f%% of successes), %d replica serves, %d seeds, %d inserts, %d evictions, %d expired\n",
			pc.CacheHits, rate, pc.CacheServed, pc.CacheSeeds, pc.CacheInserts, pc.CacheEvictions, pc.CacheExpired)
	}
	if r.SearchHops != nil || r.StoreHops != nil {
		fmt.Fprintf(w, "\nper-operation distributions (lifecycle tracer):\n")
		if r.SearchHops != nil {
			telemetry.FprintHistogram(w, "search hops", *r.SearchHops)
		}
		if r.SearchRounds != nil {
			telemetry.FprintHistogram(w, "search rounds-to-resolve", *r.SearchRounds)
		}
		if r.StoreHops != nil {
			telemetry.FprintHistogram(w, "store hops", *r.StoreHops)
		}
		if r.StoreRounds != nil {
			telemetry.FprintHistogram(w, "store rounds-to-settle", *r.StoreRounds)
		}
		if r.CachedRounds != nil {
			telemetry.FprintHistogram(w, "search rounds (cache-served)", *r.CachedRounds)
		}
		if r.UncachedRounds != nil {
			telemetry.FprintHistogram(w, "search rounds (committee-served)", *r.UncachedRounds)
		}
		if r.RouteHops != nil {
			telemetry.FprintHistogram(w, "route hops per delivery", *r.RouteHops)
		}
		if r.RouteQueueDepth != nil {
			telemetry.FprintHistogram(w, "route queue depth at parking", *r.RouteQueueDepth)
		}
		if r.SearchPath != nil {
			telemetry.FprintHistogram(w, "search overlay path length", *r.SearchPath)
		}
	}
	if routed {
		rt := r.Stats.Route
		drops := rt.DroppedBudget + rt.DroppedQueueFull + rt.DroppedChurn + rt.DroppedDead
		fmt.Fprintf(w, "\nrouting: %d routed sends, %d delivered over %d forwards; %d parked, %d dropped (%d budget, %d queue-full, %d churn, %d dead)\n",
			rt.Sent, rt.Delivered, rt.Forwards, rt.Parked, drops,
			rt.DroppedBudget, rt.DroppedQueueFull, rt.DroppedChurn, rt.DroppedDead)
	}
}

// routedCells renders the routed columns for one table row.
func routedCells(hp50, hp99, drops, maxLink int64) []string {
	return []string{
		fmt.Sprintf("%d", hp50),
		fmt.Sprintf("%d", hp99),
		fmt.Sprintf("%d", drops),
		fmt.Sprintf("%d", maxLink),
	}
}

func phaseRow(name string, rounds int, repl int64, s SLO) []string {
	return []string{
		name,
		fmt.Sprintf("%d", rounds),
		fmt.Sprintf("%d", repl),
		fmt.Sprintf("%d", s.StoresIssued),
		fmt.Sprintf("%d", s.Issued),
		fmt.Sprintf("%d", s.Succeeded),
		fmt.Sprintf("%d", s.Failed),
		fmt.Sprintf("%d", s.Lost),
		fmt.Sprintf("%.1f", 100*s.SuccessRate()),
		fmt.Sprintf("%d", s.CompleteP50),
		fmt.Sprintf("%d", s.CompleteP95),
		fmt.Sprintf("%d", s.CompleteP99),
		fmt.Sprintf("%d", s.CacheHits),
		fmt.Sprintf("%d", s.CacheServedP50),
	}
}

func printAligned(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
}
