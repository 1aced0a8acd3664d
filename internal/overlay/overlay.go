// Package overlay is the peer-maintained topology layer: a distributed
// repair process that keeps the network a d-regular (near-)expander under
// churn without the engine's oracle re-randomizing edges.
//
// The paper (§2.1) *assumes* every round's topology is a d-regular
// non-bipartite expander; in a deployment the peers themselves must
// maintain that invariant. Under simnet.EdgesSelfHealing the oracle builds
// only the round-0 graph; from then on the only edge changes are the ones
// made here, from information a real node would hold:
//
//   - Detection. When a slot's occupant is replaced, the model says its
//     connections die with it: every edge incident to a churned slot is
//     severed, leaving "dangling" ports on the newcomer and on each
//     surviving old neighbor (a live node notices a dead peer by its
//     silence; the newcomer starts with no links at all).
//   - Re-sampling. Each repairing node draws replacement endpoints from
//     the random-walk soup samples it received *this round*
//     (walks.Soup.Samples): by the Soup Theorem these are near-uniform
//     over the live network and at most one walk length stale.
//   - Degree-preserving splice. Dangling ports are paired off in a
//     seeded random order; each pair (u₁,u₂) is healed through one
//     sampled edge (w,x): the edge (w,x) is replaced by (u₁,w) and
//     (u₂,x). Every vertex keeps exactly degree d, so the graph stays a
//     d-regular multigraph with no global coordination. When no usable
//     sample exists (cold start, or every sampled source departed) the
//     pair is connected directly — still degree-exact, the fallback a
//     real node would use by answering another repairer's probe.
//   - Non-bipartiteness guard. Splices preserve regularity, not parity
//     structure, so on a cadence the overlay 2-colors the graph with
//     preallocated scratch; in the astronomically unlikely bipartite
//     case it converts two ports of one vertex into a self-loop plus a
//     bridging edge (degree-exact, and a self-loop is an odd cycle).
//
// Telemetry: on a configurable cadence the overlay estimates the walk
// matrix's second eigenvalue λ via graph.SpectralGapEstimateScratch, so
// runs — including oracle-maintained ones — can chart their spectral gap
// round by round (surfaced through dynp2p.Stats and scenario traces).
//
// Parallelism and determinism: repair is a three-phase pass over the
// engine's slot-shard grid, bit-identical at every worker count.
//
//  1. Sever (parallel): each shard scans the churned slots in its slot
//     range and emits, in (slot, port) order, the port pairs of severed
//     edges whose canonical side it owns (when both endpoints churned,
//     the lower-indexed port emits). The scan only reads the adjacency
//     and the reciprocal-port table; per-shard segments are then merged
//     into the dangling-port pool in fixed shard index order — which is
//     ascending slot order, the same canonical pool the serial code
//     built — and the dangling bits are set serially.
//  2. Propose (parallel): after a serial seeded shuffle pairs the pool
//     off, each pair's splice target is chosen against the FROZEN
//     post-sever adjacency by a scratch RNG stream reseeded from
//     hash(seed, round, pair index) — randomness is a pure function of
//     the pair, not of any shared stream's consumption order, so any
//     worker may evaluate any pair. Proposals only avoid dangling ports,
//     and heals only clear dangling bits, so a proposal can never be
//     invalidated by the heals that precede it.
//  3. Apply (serial): heals execute in pair order, splicing each pair
//     through its proposed edge as that edge stands now (an earlier
//     splice may have rotated the peer — the splice is degree-exact
//     either way) and updating the reciprocal-port table in place.
//
// All randomness derives from the protocol seed, so runs are a pure
// function of (seeds, parameters) at any worker or shard count — the
// engine's contract.
// The repair cost is O(churned·d) with all scratch reused: steady-state
// rounds allocate nothing (benchmarked by BenchmarkOverlayRepair).
package overlay

import (
	"fmt"
	"slices"
	"sort"

	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// maxSampleTries bounds how many soup samples one heal inspects before
// falling back to a direct pairing: a real repairer probes a handful of
// candidates, not its whole sample set.
const maxSampleTries = 8

// spliceHops is how many local random hops a repairer takes from a
// sampled entry point before choosing the edge to splice into (see
// pickEdge for why zero hops stratifies the graph by node age).
const spliceHops = 2

// spectralIters is the power-iteration count per λ measurement: ample
// for the 1e-2 resolution telemetry needs.
const spectralIters = 40

// guardEvery runs the bipartiteness guard every k repair rounds (the
// guard also runs once on activation).
const guardEvery = 16

// Config parameterises an Overlay. The zero value is a working default:
// repair active whenever the engine is in SelfHealing mode, spectral
// telemetry off.
type Config struct {
	// SpectralEvery measures λ every k rounds (0 disables telemetry).
	// Measurement draws from a dedicated stream, so changing the cadence
	// never perturbs repair decisions.
	SpectralEvery int
}

// Metrics counts overlay events since creation. All fields are scalars so
// snapshots stay comparable with == (the determinism tests rely on it).
type Metrics struct {
	PortsSevered int64 // dangling ports created by churn (2 per severed edge)
	Splices      int64 // port pairs healed through a sampled edge
	DirectPairs  int64 // port pairs healed by direct connection (no usable sample)
	StaleSamples int64 // samples skipped because their source had departed
	GuardChecks  int64 // bipartiteness checks run
	GuardFixes   int64 // bipartite graphs repaired (expected: 0, ~ever)

	SpectralRounds int64   // λ measurements taken
	Lambda         float64 // most recent λ estimate
	LambdaRound    int     // round of the most recent estimate (-1 = none)
	LambdaMax      float64 // largest estimate seen
	LambdaMaxRound int     // round of the largest estimate (-1 = none)
}

// Overlay is the repair-and-telemetry round hook. Register it on the
// engine *after* the walk soup (repair consumes the round's fresh
// samples, and its rewiring must not race the soup's adjacency snapshot).
type Overlay struct {
	cfg     Config
	n, d    int
	soup    *walks.Soup
	grid    shard.Grid
	workers int

	r        *rng.Stream   // pair shuffle (serial, one draw sequence per round)
	tele     *rng.Stream   // spectral probe vectors
	pairSeed uint64        // seeds the per-pair proposal streams
	prng     []*rng.Stream // per-shard scratch streams, reseeded per pair

	// co is the reciprocal-port table: for each port v·d+p with
	// adj[v·d+p] = w, co[v·d+p] is the port q of w with adj[w·d+q] = v
	// (and co[w·d+q] = p). It makes severing a churned slot's edges O(d)
	// and is maintained through every rewire. It is built in one pass
	// over the graph on the first SelfHealing round; nil means not built
	// (the run's edges belong to an oracle mode, or no round ran yet).
	co []int32
	// dang marks dangling ports (bit v·d+p) during a repair round; bits
	// are cleared as ports heal, so the mask is empty between rounds.
	dang     []uint64
	dangList []uint32   // dangling ports of the current round, then shuffled
	churned  []int32    // sorted copy of the round's churned slots
	sevSegs  [][]uint32 // per-shard sever output, merged in shard order
	props    []proposal // per-pair splice proposals
	staleSeg []int64    // per-shard stale-sample tallies, merged serially

	color []int8  // bipartiteness guard scratch
	stack []int32 // bipartiteness guard scratch
	x, y  []float64

	repairRounds int64 // rounds in which repairs ran (guard cadence)
	m            Metrics
}

// proposal is one pair's splice target from the parallel propose phase:
// splice through port q of w, or connect the pair directly when w < 0.
type proposal struct{ w, q int32 }

// New creates an overlay for the engine and its walk soup. The caller
// must register it via e.AddHook *after* the soup hook.
func New(e *simnet.Engine, soup *walks.Soup, cfg Config) *Overlay {
	// The derivation tags share the ProtocolSeed namespace with per-node
	// streams (Derive(seed, id), ids assigned sequentially from 1); the
	// set top bit keeps them out of any reachable id range so no node's
	// randomness can ever be correlated with the repair streams.
	seed := e.Config().ProtocolSeed
	o := &Overlay{
		cfg:      cfg,
		n:        e.N(),
		d:        e.Degree(),
		soup:     soup,
		grid:     e.Grid(),
		workers:  e.Workers(),
		r:        rng.Derive(seed, 1<<63|0x0e71a),
		tele:     rng.Derive(seed, 1<<63|0x57ec7),
		pairSeed: rng.Hash(seed, 1<<63|0x9a17c),
		m:        Metrics{LambdaRound: -1, LambdaMaxRound: -1},
	}
	o.prng = make([]*rng.Stream, o.grid.Count())
	for i := range o.prng {
		o.prng[i] = rng.New(0) // reseeded per pair; the seed here is moot
	}
	o.sevSegs = make([][]uint32, o.grid.Count())
	o.staleSeg = make([]int64, o.grid.Count())
	if cfg.SpectralEvery > 0 {
		o.x = make([]float64, o.n)
		o.y = make([]float64, o.n)
	}
	// Bridge the overlay's counters into the telemetry registry. λ is a
	// float in [0,1]; it is exposed in micro-units (×1e6) since registry
	// values are integers.
	e.Telemetry().RegisterCollector(func(emit func(string, telemetry.Kind, int64)) {
		emit("dynp2p_overlay_ports_severed_total", telemetry.KindCounter, o.m.PortsSevered)
		emit("dynp2p_overlay_splices_total", telemetry.KindCounter, o.m.Splices)
		emit("dynp2p_overlay_direct_pairs_total", telemetry.KindCounter, o.m.DirectPairs)
		emit("dynp2p_overlay_stale_samples_total", telemetry.KindCounter, o.m.StaleSamples)
		emit("dynp2p_overlay_guard_checks_total", telemetry.KindCounter, o.m.GuardChecks)
		emit("dynp2p_overlay_guard_fixes_total", telemetry.KindCounter, o.m.GuardFixes)
		emit("dynp2p_overlay_spectral_rounds_total", telemetry.KindCounter, o.m.SpectralRounds)
		emit("dynp2p_overlay_lambda_e6", telemetry.KindGauge, int64(o.m.Lambda*1e6))
		emit("dynp2p_overlay_lambda_max_e6", telemetry.KindGauge, int64(o.m.LambdaMax*1e6))
	})
	return o
}

// Metrics returns a snapshot of the counters.
func (o *Overlay) Metrics() Metrics { return o.m }

// StepRound implements simnet.RoundHook: sever and repair when the run's
// edges are SelfHealing, then take the round's spectral measurement if
// one is due. Runs serially; all randomness comes from the overlay's own
// derived streams, so the engine's worker-count independence holds.
func (o *Overlay) StepRound(e *simnet.Engine, round int) {
	g := e.Graph()
	if e.EdgeMode() == simnet.EdgesSelfHealing {
		if o.co == nil {
			o.activate(g)
		}
		o.repair(e, g, round)
	}
	if o.cfg.SpectralEvery > 0 && round%o.cfg.SpectralEvery == 0 {
		o.measure(g, round)
	}
}

// activate builds the repair state from the round-0 graph: the
// reciprocal-port table, the scratch buffers, and one guard pass (the
// oracle's graph is only non-bipartite w.h.p.; after this the overlay
// maintains the property itself).
func (o *Overlay) activate(g *graph.Graph) {
	nd := o.n * o.d
	o.co = make([]int32, nd)
	o.dang = make([]uint64, (nd+63)/64)
	o.color = make([]int8, o.n)
	o.stack = make([]int32, 0, 64)
	o.buildCoPorts(g)
	o.guard(g)
}

// buildCoPorts fills the reciprocal-port table by matching, for each edge
// side, the first unmatched port on the other side that points back.
// O(n·d²) worst case; runs only on activation. Panics if the multigraph
// is not symmetric — such a graph cannot be self-healed (or walked).
func (o *Overlay) buildCoPorts(g *graph.Graph) {
	d := o.d
	adj := g.Adjacency()
	for i := range o.dang {
		o.dang[i] = 0 // reuse the dangling mask as the "matched" mask
	}
	for v := 0; v < o.n; v++ {
		for p := 0; p < d; p++ {
			vp := v*d + p
			if o.isDang(vp) {
				continue
			}
			w := int(adj[vp])
			found := false
			for q := 0; q < d; q++ {
				wq := w*d + q
				if wq == vp || o.isDang(wq) || int(adj[wq]) != v {
					continue
				}
				o.co[vp] = int32(q)
				o.co[wq] = int32(p)
				o.setDang(vp)
				o.setDang(wq)
				found = true
				break
			}
			if !found {
				panic(fmt.Sprintf("overlay: asymmetric multigraph at vertex %d port %d (-> %d)", v, p, w))
			}
		}
	}
	for i := range o.dang {
		o.dang[i] = 0
	}
}

func (o *Overlay) isDang(port int) bool {
	return o.dang[uint(port)>>6]>>(uint(port)&63)&1 != 0
}

func (o *Overlay) setDang(port int) {
	o.dang[uint(port)>>6] |= 1 << (uint(port) & 63)
}

func (o *Overlay) clearDang(port int) {
	o.dang[uint(port)>>6] &^= 1 << (uint(port) & 63)
}

// repair severs every edge incident to a slot churned this round and
// heals the resulting dangling ports pairwise through sampled edges.
// See the package comment for the three-phase parallel structure and why
// every phase is worker-count independent.
func (o *Overlay) repair(e *simnet.Engine, g *graph.Graph, round int) {
	batch := e.ChurnedThisRound()
	if len(batch) == 0 {
		return
	}
	d := o.d
	adj := g.Adjacency()

	o.churned = o.churned[:0]
	for _, s := range batch {
		o.churned = append(o.churned, int32(s))
	}
	slices.Sort(o.churned)

	// Phase 1 — sever (parallel, read-only). Each shard walks the churned
	// slots in its slot range and emits each severed edge's two port sides
	// exactly once: the churned side emits, and when both endpoints
	// churned, the lower-indexed port does (a degenerate one-port
	// self-loop stays wired — the newcomer inherits it, degree intact).
	o.grid.Run(o.workers, func(sh int) {
		lo, hi := o.grid.Bounds(sh, o.n)
		seg := o.sevSegs[sh][:0]
		i := sort.Search(len(o.churned), func(i int) bool { return int(o.churned[i]) >= lo })
		for ; i < len(o.churned) && int(o.churned[i]) < hi; i++ {
			base := int(o.churned[i]) * d
			for p := 0; p < d; p++ {
				vp := base + p
				wp := int(adj[vp])*d + int(o.co[vp])
				if wp != vp && !(e.ReplacedInRound(int(adj[vp]), round) && wp < vp) {
					seg = append(seg, uint32(vp), uint32(wp))
				}
			}
		}
		o.sevSegs[sh] = seg
	})
	// Fixed-order merge: shard ranges are contiguous and ascending, so
	// concatenating segments in shard index order rebuilds the canonical
	// slot-ordered dangling pool the serial sever produced.
	o.dangList = o.dangList[:0]
	for sh := range o.sevSegs {
		for _, port := range o.sevSegs[sh] {
			o.setDang(int(port))
			o.dangList = append(o.dangList, port)
		}
	}
	o.m.PortsSevered += int64(len(o.dangList))
	if len(o.dangList)%2 != 0 {
		panic("overlay: odd dangling-port count (severing is broken)")
	}

	// Shuffle the dangling ports (a node finds its repair partner by a
	// random rendezvous, not by adjacency order — this is what keeps a
	// dead node's neighborhood from collapsing into a clique), then pair
	// consecutive entries.
	for i := len(o.dangList) - 1; i > 0; i-- {
		j := o.r.Intn(i + 1)
		o.dangList[i], o.dangList[j] = o.dangList[j], o.dangList[i]
	}

	// Phase 2 — propose (parallel, frozen adjacency). Each pair's splice
	// target is a pure function of (seed, round, pair index) and the
	// post-sever graph, evaluated by whichever shard owns the pair range.
	pairs := len(o.dangList) / 2
	if cap(o.props) < pairs {
		o.props = make([]proposal, pairs, max(pairs, 2*cap(o.props)))
	} else {
		o.props = o.props[:pairs]
	}
	roundSeed := rng.Hash(o.pairSeed, uint64(round))
	nsh := o.grid.Count()
	o.grid.Run(o.workers, func(sh int) {
		pr := o.prng[sh]
		var stale int64
		for i := pairs * sh / nsh; i < pairs*(sh+1)/nsh; i++ {
			pr.ReseedDerived(roundSeed, uint64(i))
			a, b := int(o.dangList[2*i]), int(o.dangList[2*i+1])
			w, q, st := o.pickEdge(e, adj, a/d, b/d, pr)
			o.props[i] = proposal{w: int32(w), q: int32(q)}
			stale += st
		}
		o.staleSeg[sh] = stale
	})
	for sh := range o.staleSeg {
		o.m.StaleSamples += o.staleSeg[sh]
		o.staleSeg[sh] = 0
	}

	// Phase 3 — apply (serial, pair order).
	for i := 0; i < pairs; i++ {
		o.heal(g, adj, int(o.dangList[2*i]), int(o.dangList[2*i+1]), o.props[i])
	}

	o.repairRounds++
	if o.repairRounds%guardEvery == 0 {
		o.guard(g)
	}
}

// heal fills dangling ports a and b per the pair's proposal. Preferred:
// splice both through the proposed live edge (w,x), replacing it with
// (ua,w) and (ub,x) — the edge is read as it stands NOW, so earlier heals
// may have rotated x since the propose phase, which is fine: the splice
// is degree-exact against any live edge, and proposals only avoid
// dangling ports, which heals never create. Fallback (w < 0): connect a
// and b directly. Both update the reciprocal-port table in place.
func (o *Overlay) heal(g *graph.Graph, adj []int32, a, b int, pick proposal) {
	d := o.d
	ua, pa := a/d, a%d
	ub, pb := b/d, b%d
	w, q := int(pick.w), int(pick.q)
	if w < 0 {
		g.SetPort(ua, pa, int32(ub))
		g.SetPort(ub, pb, int32(ua))
		o.co[a] = int32(pb)
		o.co[b] = int32(pa)
		o.clearDang(a)
		o.clearDang(b)
		o.m.DirectPairs++
		return
	}
	wp := w*d + q
	x, xq := int(adj[wp]), int(o.co[wp])
	xp := x*d + xq
	g.SetPort(ua, pa, int32(w))
	g.SetPort(w, q, int32(ua))
	o.co[a] = int32(q)
	o.co[wp] = int32(pa)
	g.SetPort(ub, pb, int32(x))
	g.SetPort(x, xq, int32(ub))
	o.co[b] = int32(xq)
	o.co[xp] = int32(pb)
	o.clearDang(a)
	o.clearDang(b)
	o.m.Splices++
}

// pickEdge returns a live edge (w, port q of w) to splice through, drawn
// from the walk samples delivered this round to the two repairing slots —
// exactly the information those nodes hold. A usable sample's source is
// necessarily old (it had to survive one walk length) and still alive,
// so splicing at the sampled node itself would stratify the graph by age:
// under paper-rate churn half the network would never be a splice target
// and λ drifts up. The repairer therefore uses the sample only as an
// entry point and takes spliceHops local random hops from it — two extra
// messages in a real network — landing on an age-mixed node before
// choosing the edge. All randomness comes from pr, the pair's private
// stream, and all graph reads see the frozen post-sever adjacency, so
// the choice is a pure per-pair function (the propose phase runs it from
// any worker). Returns w = -1 when no candidate works (no samples yet,
// every sampled source departed, or every port of the landing node is
// itself dangling), plus the number of stale samples skipped.
func (o *Overlay) pickEdge(e *simnet.Engine, adj []int32, ua, ub int, pr *rng.Stream) (int, int, int64) {
	d := o.d
	tried := 0
	var stale int64
	for _, src := range [2]int{ua, ub} {
		smp := o.soup.Samples(src)
		if len(smp) == 0 {
			continue
		}
		// Start at a random sample so one busy round spreads its splices
		// over the whole sample set.
		start := pr.Intn(len(smp))
		for k := 0; k < len(smp) && tried < maxSampleTries; k++ {
			sm := smp[(start+k)%len(smp)]
			tried++
			w, ok := e.SlotOf(sm.Src)
			if !ok {
				stale++
				continue
			}
			// Hop only over live (non-dangling) ports: a severed link is
			// exactly the kind a real node could no longer route a probe
			// through. If every port of an intermediate is dangling the
			// probe stays put for that hop.
			for hop := 0; hop < spliceHops; hop++ {
				h0 := pr.Intn(d)
				for j := 0; j < d; j++ {
					p := h0 + j
					if p >= d {
						p -= d
					}
					if !o.isDang(w*d + p) {
						w = int(adj[w*d+p])
						break
					}
				}
			}
			r0 := pr.Intn(d)
			for j := 0; j < d; j++ {
				q := r0 + j
				if q >= d {
					q -= d
				}
				if !o.isDang(w*d + q) {
					return w, q, stale
				}
			}
		}
	}
	return -1, -1, stale
}

// guard checks bipartiteness with preallocated scratch and, in the
// vanishing-probability bipartite case, restores an odd cycle by turning
// two ports of vertex 0 into a self-loop and bridging their old
// endpoints — degree-exact, one rewire.
func (o *Overlay) guard(g *graph.Graph) {
	o.m.GuardChecks++
	if !o.bipartite(g) {
		return
	}
	o.m.GuardFixes++
	d := o.d
	adj := g.Adjacency()
	// A bipartite graph has no self-loops, so both endpoints differ from
	// vertex 0 and the rewire below is well-defined.
	b, q0 := int(adj[0]), int(o.co[0])
	c, q1 := int(adj[1]), int(o.co[1])
	g.SetPort(0, 0, 0)
	g.SetPort(0, 1, 0)
	o.co[0], o.co[1] = 1, 0
	g.SetPort(b, q0, int32(c))
	o.co[b*d+q0] = int32(q1)
	g.SetPort(c, q1, int32(b))
	o.co[c*d+q1] = int32(q0)
}

// bipartite reports whether g admits a proper 2-coloring, using the
// overlay's reusable color and stack buffers (graph.IsBipartite allocates;
// this runs on a per-round cadence and must not).
func (o *Overlay) bipartite(g *graph.Graph) bool {
	for i := range o.color {
		o.color[i] = 0
	}
	st := o.stack[:0]
	defer func() { o.stack = st[:0] }()
	for s := 0; s < o.n; s++ {
		if o.color[s] != 0 {
			continue
		}
		o.color[s] = 1
		st = append(st, int32(s))
		for len(st) > 0 {
			v := st[len(st)-1]
			st = st[:len(st)-1]
			for _, w := range g.Neighbors(int(v)) {
				if w == v {
					return false // self-loop: odd cycle of length 1
				}
				switch o.color[w] {
				case 0:
					o.color[w] = 3 - o.color[v]
					st = append(st, w)
				case o.color[v]:
					return false
				}
			}
		}
	}
	return true
}

// measure records one spectral-gap estimate.
func (o *Overlay) measure(g *graph.Graph, round int) {
	l := g.SpectralGapEstimateScratch(o.tele, spectralIters, o.x, o.y)
	o.m.SpectralRounds++
	o.m.Lambda = l
	o.m.LambdaRound = round
	if l > o.m.LambdaMax || o.m.LambdaMaxRound < 0 {
		o.m.LambdaMax = l
		o.m.LambdaMaxRound = round
	}
}

// CheckInvariants verifies the overlay's structural invariants against
// the graph: the reciprocal-port table is a consistent involution and no
// port is left dangling between rounds. Test and experiment support; not
// called on the hot path.
func (o *Overlay) CheckInvariants(g *graph.Graph) error {
	if o.co == nil {
		return nil
	}
	d := o.d
	adj := g.Adjacency()
	for v := 0; v < o.n; v++ {
		for p := 0; p < d; p++ {
			vp := v*d + p
			if o.isDang(vp) {
				return fmt.Errorf("overlay: port %d/%d dangling between rounds", v, p)
			}
			w, q := int(adj[vp]), int(o.co[vp])
			if w < 0 || w >= o.n || q < 0 || q >= d {
				return fmt.Errorf("overlay: port %d/%d has invalid co-port (%d, %d)", v, p, w, q)
			}
			if int(adj[w*d+q]) != v || int(o.co[w*d+q]) != p {
				return fmt.Errorf("overlay: ports %d/%d and %d/%d are not reciprocal", v, p, w, q)
			}
		}
	}
	return nil
}
