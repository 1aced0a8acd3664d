// Package simnet implements the synchronous dynamic-network engine of the
// paper's model (§2.1). Each round proceeds exactly in the model's order:
//
//  1. the adversary replaces up to its churn budget of nodes and rewires
//     the d-regular expander topology;
//  2. every live node learns its current neighbours;
//  3. registered round hooks run (the random-walk soup lives here);
//  4. every live node's protocol handler runs with the messages that were
//     addressed to it, and may send new id-addressed messages;
//  5. outgoing messages are routed: a message to an id that has been
//     churned out is silently dropped — the model's failure mode. An
//     optional FaultModel (fault.go) may additionally drop or delay
//     messages at this point, modelling lossy links on top of churn.
//
// The engine distinguishes *slots* (0..n-1, the stable positions the
// adversary's topology is defined over) from *node ids* (the identities
// protocols talk to). Churn replaces a slot's occupant with a fresh id; the
// newcomer inherits the slot's current edges and knows nothing else, just
// as the model prescribes.
//
// Determinism: a run is a pure function of (adversary seed, protocol seed,
// parameters) regardless of GOMAXPROCS. Node handlers execute in parallel
// but draw randomness only from per-node streams derived from the protocol
// seed and the node id, and inbox order is canonical *by construction*:
// handlers and routing both run over a fixed number of slot shards
// (internal/shard), messages carry their sender's slot, and the gather
// phase merges source shards in fixed index order, so every inbox arrives
// sorted by (send round, sender slot, per-sender sequence) without any
// sorting. See DESIGN.md §6 for the engine internals.
package simnet

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"unsafe"

	"dynp2p/internal/churn"
	"dynp2p/internal/graph"
	"dynp2p/internal/rng"
	"dynp2p/internal/route"
	"dynp2p/internal/shard"
	"dynp2p/internal/telemetry"
)

// NodeID identifies a (possibly departed) node. IDs are never reused; 0 is
// invalid.
type NodeID uint64

// MaxPayloadLen bounds len(Msg.IDs()) and len(Msg.Blob()): the modelled
// wire format carries each with a 16-bit length field (see Msg.Bits), so a
// longer payload cannot be expressed on the wire. SetPayload enforces it.
// The paper's algorithms stay far below: committee rosters and id lists
// are O(log n), blobs are item payloads or IDA pieces.
const MaxPayloadLen = 65535

// Msg is an id-addressed protocol message. Protocols multiplex on Kind.
// The fixed fields cover every message of the paper's algorithms: walk
// samples carry ids, committee invitations carry id lists, storage and
// retrieval messages carry an item key plus an id.
//
// A Msg is a header: 80 bytes, one pointer word (TestMsgLayout; the field
// table with offsets is in DESIGN.md §6). The few messages that carry an
// id list or a data blob hold them in a pooled payload cell behind that
// pointer, attached with Ctx.SetPayload and read with IDs() and Blob().
// Fields are ordered widest first so the struct has no padding holes.
type Msg struct {
	From NodeID
	To   NodeID
	Item uint64 // item key (or unused)
	Aux  uint64 // auxiliary value (round numbers, piece indices, ...)
	Aux2 uint64 // second auxiliary (e.g. the searcher id a reply routes to)

	// Trace is an observability tag: when an operation is sampled for
	// lifecycle tracing (telemetry.Tracer), protocol messages belonging
	// to it carry the operation's nonzero trace id, and the receiver
	// records a hop event. The tag is out-of-band telemetry, not part of
	// the modelled wire format, so it does not count toward Bits().
	Trace uint64

	// payload is the id-list/blob cell, nil for a header-only message. It
	// points into the sender shard's slab (payloadSlab), which is recycled
	// two rounds after the send; whoever keeps a Msg longer than its
	// delivery round must copy the cell out (faultFate, sendToRouter).
	payload *payload

	// Hops is the true network path length the message travelled when it
	// was delivered over the overlay (RoutingOverlay); 0 for
	// oracle-delivered messages. Like Trace it is out-of-band telemetry
	// and does not count toward Bits().
	Hops int32

	// (sentRound, srcSlot, seq) is unique per message and is the canonical
	// inbox order. Fresh messages arrive already ordered (the sharded
	// exchange merges sender slots in fixed order); fault-delayed messages
	// are inserted at their sort position when they finally land.
	sentRound int32
	srcSlot   int32  // sender's slot at send time
	seq       uint32 // per-sender per-round sequence

	Kind uint8

	// keyed marks a holder-seeking message (SendKeyed): the overlay walk
	// may terminate early at any current holder of Item. Only the router
	// reads it.
	keyed bool
}

// payload is the variable-length part of a message: the id list (committee
// rosters etc.) and the data blob (item copies, IDA pieces), each at most
// MaxPayloadLen long. The slices are the sender's; the engine never copies
// their contents.
type payload struct {
	ids  []NodeID
	blob []byte
}

// IDs returns the message's id-list payload, nil if it has none. Like the
// Inbox it is only valid during the HandleRound that received the message.
func (m *Msg) IDs() []NodeID {
	if m.payload == nil {
		return nil
	}
	return m.payload.ids
}

// Blob returns the message's data payload, nil if it has none; valid as
// long as IDs.
func (m *Msg) Blob() []byte {
	if m.payload == nil {
		return nil
	}
	return m.payload.blob
}

// headerBits is the modelled wire size of a message without payload:
// from + to + kind + item + aux + aux2 = 64+64+8+64+64+64.
const headerBits = 328

// payloadBits is the modelled wire size of a payload: 64 per id and 8 per
// blob byte, each list with a 16-bit length field when present.
// SetPayload bounds both lengths to MaxPayloadLen so the 16-bit fields
// cannot be overrun.
func payloadBits(ids []NodeID, blob []byte) int {
	b := 0
	if len(ids) > 0 {
		b += 16 + 64*len(ids)
	}
	if len(blob) > 0 {
		b += 16 + 8*len(blob)
	}
	return b
}

// Bits returns the message's modelled wire size in bits. The paper requires
// every node to send only polylog(n) bits per round; experiment E9 audits
// this via the engine's accounting.
func (m *Msg) Bits() int {
	if p := m.payload; p != nil {
		return headerBits + payloadBits(p.ids, p.blob)
	}
	return headerBits
}

// payloadSlab is one shard's pool of payload cells for one round parity.
// Handlers of round r take cells from their shard's slab r&1; the cells
// are read out of the round r+1 inboxes, and round r+2 starts the slab
// over. Only a few percent of messages carry a payload, but a heap cell
// for each was ~15k allocations a round on the cached workload.
type payloadSlab struct {
	cells []payload
}

// reset starts the slab over, dropping the cells' references so a recycled
// slab pins no sender's buffers.
func (s *payloadSlab) reset() {
	clear(s.cells)
	s.cells = s.cells[:0]
}

// alloc returns a zeroed cell. A full slab is replaced by one twice the
// size rather than grown by copying: the messages already sent this round
// point into the old array and keep it alive exactly as long as they last.
func (s *payloadSlab) alloc() *payload {
	n := len(s.cells)
	if n == cap(s.cells) {
		s.cells = make([]payload, 0, max(64, 2*n))
		n = 0
	}
	s.cells = s.cells[:n+1]
	return &s.cells[n]
}

// msgBefore reports whether a precedes b in the canonical inbox order
// (sentRound, srcSlot, seq).
func msgBefore(a, b *Msg) bool {
	if a.sentRound != b.sentRound {
		return a.sentRound < b.sentRound
	}
	if a.srcSlot != b.srcSlot {
		return a.srcSlot < b.srcSlot
	}
	return a.seq < b.seq
}

// Handler is a node-level protocol. One Handler instance serves the whole
// network; per-node state must be kept by the handler keyed by slot or id.
// HandleRound may be invoked concurrently for different nodes and must only
// touch that node's state plus immutable shared data.
type Handler interface {
	// OnJoin is called (sequentially) when a fresh node occupies a slot,
	// including the initial population at round 0.
	OnJoin(e *Engine, slot int, id NodeID, round int)
	// OnLeave is called (sequentially) when a node is churned out.
	// Protocols must use it only for bookkeeping/metrics: real departed
	// nodes say no goodbye.
	OnLeave(e *Engine, slot int, id NodeID, round int)
	// HandleRound runs one round of the protocol for one live node. The
	// Ctx (and its Inbox) is only valid for the duration of the call; the
	// engine reuses it for the next node.
	HandleRound(ctx *Ctx)
}

// RoundHook runs between topology change and protocol handlers each round.
// The random-walk soup (internal/walks) is a RoundHook.
type RoundHook interface {
	StepRound(e *Engine, round int)
}

// Config parameterises an Engine.
type Config struct {
	N             int            // stable network size
	Degree        int            // expander degree (even)
	EdgeMode      EdgeMode       // edge dynamics (edges.go)
	AdversarySeed uint64         // drives churn schedule and topology
	ProtocolSeed  uint64         // drives all protocol randomness
	Strategy      churn.Strategy // which slots get churned
	Law           churn.Law      // how many per round
	Fault         FaultModel     // message-level faults for the run; nil = reliable links
	Workers       int            // parallel handler workers; 0 = GOMAXPROCS

	// Shards is the slot-shard grid count (power of two ≤ shard.MaxCount).
	// 0 picks shard.Pick(N, GOMAXPROCS) — enough shards that the slot
	// ranges stay cache-sized and every core finds work. New writes the
	// resolved count back into the engine's Config. Like Workers it is a
	// throughput knob only: a run's results are the same at any shard
	// count (package shard).
	Shards int

	// Telemetry is the metrics registry the engine (and everything built
	// on it) reports into. nil = the engine creates a private one, so
	// Metrics() and Telemetry() always work.
	Telemetry *telemetry.Registry

	// Routing selects how every message a handler sends travels, for the
	// whole run: RoutingOracle (the zero value) teleports it to its
	// addressee through the sharded exchange; RoutingOverlay walks it
	// edge-by-edge over the live topology with link capacities and
	// bounded queues (routing.go, internal/route).
	Routing RoutingConfig
}

// Metrics aggregates engine-level counters for the current run. Since the
// telemetry registry became the store of record this struct is a *view*:
// Engine.Metrics() assembles it from the registry's dynp2p_engine_*
// series, and the two can never disagree.
type Metrics struct {
	Rounds        int
	MsgsSent      int64
	MsgsDelivered int64
	MsgsDropped   int64 // addressed to churned-out ids
	// MsgsFaultDropped / MsgsDelayed count the fault model's interventions
	// (losses and deferred deliveries respectively).
	MsgsFaultDropped int64
	MsgsDelayed      int64
	BitsSent         int64
	Replacements     int64
	// MaxNodeBitsRound is the largest per-node bits-sent observed in any
	// single round (the scalability audit for E9).
	MaxNodeBitsRound int64
}

// engineMetrics holds the engine's registry handles. All engine-side
// updates happen in serial round phases (churn, tally merge, delayed
// delivery), so every write goes to shard 0.
type engineMetrics struct {
	rounds       telemetry.Counter
	sent         telemetry.Counter
	delivered    telemetry.Counter
	dropped      telemetry.Counter
	faultDropped telemetry.Counter
	delayed      telemetry.Counter
	bitsSent     telemetry.Counter
	replacements telemetry.Counter
	maxNodeBits  telemetry.Gauge
}

func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	return engineMetrics{
		rounds:       reg.Counter("dynp2p_engine_rounds_total", "simulation rounds executed"),
		sent:         reg.Counter("dynp2p_engine_msgs_sent_total", "protocol messages sent"),
		delivered:    reg.Counter("dynp2p_engine_msgs_delivered_total", "protocol messages delivered"),
		dropped:      reg.Counter("dynp2p_engine_msgs_dropped_total", "messages addressed to churned-out ids"),
		faultDropped: reg.Counter("dynp2p_engine_msgs_fault_dropped_total", "messages lost to the fault model"),
		delayed:      reg.Counter("dynp2p_engine_msgs_delayed_total", "messages deferred by the fault model"),
		bitsSent:     reg.Counter("dynp2p_engine_bits_sent_total", "modelled wire bits sent"),
		replacements: reg.Counter("dynp2p_engine_replacements_total", "churn replacements performed"),
		maxNodeBits:  reg.Gauge("dynp2p_engine_max_node_bits_round", "largest per-node bits sent in any single round"),
	}
}

// routedRef identifies a message staged for delivery: the destination slot
// it resolved to, plus its index in the source shard's out buffer. An
// 8-byte reference rides the exchange instead of an 80-byte Msg copy; the
// gather phase copies each message exactly once, straight into its inbox —
// the only Msg-sized copy between a handler's send and the inbox.
type routedRef struct {
	slot int32  // destination slot
	idx  uint32 // index into the source shard's out buffer
}

// routeShard is the per-source-shard staging area of the message exchange:
// handler output, per-destination-shard transfer buffers, fault-delayed
// messages, and metric tallies. All buffers are reused across rounds. The
// struct is sized to an exact multiple of the cache line (asserted by
// TestRouteShardCacheAligned), so workers filling adjacent shards never
// false-share — the same discipline the engine's original per-worker
// buffers used.
type routeShard struct {
	out     []Msg         // handler output, canonical (slot, seq) order
	xfer    [][]routedRef // grid-sized: refs to messages bound for each destination shard
	delayed []delayedMsg  // fault-delayed messages from this shard, canonical order
	ctx     *Ctx          // reusable handler context for this shard's slots

	// pay holds the payload cells of this shard's sends, double-buffered
	// by round parity like the inbox arenas: round r fills pay[r&1] while
	// round r's inboxes still read cells out of pay[1-r&1].
	pay [2]payloadSlab

	bits         int64 // handler bits sent by this shard's slots this round
	maxBits      int64 // max per-node bits in this shard this round
	dropped      int64
	faultDropped int64
	delayedCnt   int64

	// kinds counts this shard's sends by Msg.Kind over the whole run
	// (Engine.KindCount sums the shards).
	kinds [256]KindCount

	_ [88]byte // pad to a cache-line multiple (TestRouteShardCacheAligned)
}

// KindCount is what the handlers sent of one message kind: messages and
// their modelled wire bits (Msg.Bits).
type KindCount struct {
	Msgs, Bits int64
}

// inboxArena is one destination shard's next-round message store: every
// message bound for the shard's slots lands in one flat slot-major
// buffer, placed by a counting sort over the exchange refs, and the
// per-slot inbox views are sliced out of it. One geometrically-grown
// buffer per shard replaces n per-slot append slices, whose record-maxima
// growth kept the route gather allocating long into the steady state.
// Views are capacity-clamped so a late append (the fault-delay insert
// path) copies out instead of clobbering the neighbouring slot's run.
type inboxArena struct {
	msgs   []Msg
	off    []int32 // len slots+1: slot lo+l owns msgs[off[l]:off[l+1]]
	counts []int32 // placement scratch, len slots
}

// Engine is the simulator. Create with New, drive with RunRound.
type Engine struct {
	cfg Config
	adv *churn.Adversary

	// g is the topology over slots; topoRng is the oracle's stream that
	// redraws it every round under EdgesRerandomize (edges.go).
	g       *graph.Graph
	topoRng *rng.Stream

	ids       []NodeID // slot -> occupant id
	joinRound []int32  // slot -> round the occupant joined
	nodeRng   []*rng.Stream
	nextID    NodeID

	// slotIndex maps id -> occupied slot, or -1 once the id has departed.
	// Ids are dense, monotonically assigned, and never reused, so a flat
	// array replaces the hash map the hot routing path used to probe: one
	// bounds check and one load per resolution. It grows geometrically
	// with the id space (4 bytes per id ever created — fine for
	// simulation lifetimes).
	slotIndex []int32

	inbox     [][]Msg // slot -> messages to deliver this round (arena views)
	nextInbox [][]Msg // slot -> messages accumulated for next round (arena views)

	// arenas are the double-buffered per-destination-shard inbox stores
	// (inboxArena): round r's route writes arenas[r&1] while handlers read
	// last round's views out of arenas[1-r&1].
	arenas [2][]inboxArena

	faultSeed uint64       // derived from the adversary seed
	delayed   []delayedMsg // fault-delayed messages, canonical order

	churned []int // slots replaced in the current round

	// slotLoc is the slot → packed (shard, local) table (shard.LocTable):
	// one load resolves a destination slot's shard on the routing hot path
	// instead of a hardware divide per message.
	slotLoc []uint32

	grid shard.Grid // slot-shard grid, fixed at construction

	hooks     []RoundHook
	hookNames []string // parallel to hooks, for profiler phase labels

	// Overlay routing state (routing.go): the walker router, the
	// protocol's key-holder predicate, the test-only hop recorder, the
	// per-message walk-seed salt, and the delivery arena.
	router      *route.Router[walkerMsg]
	keyHolder   func(slot int, key uint64, round int) bool
	hopRec      func(round, from, to int)
	routeSeed   uint64
	routedArena deliveryArena

	reg    *telemetry.Registry
	em     engineMetrics
	tracer *telemetry.Tracer
	prof   *telemetry.PhaseProfiler

	workers  int
	shardOut []routeShard // [shard.Count] scatter/gather staging

	round int
}

// New builds an engine and populates the initial n nodes (handler.OnJoin is
// NOT called here; the first RunRound invocation with round 0 performs
// initial joins so that handlers see a consistent engine).
func New(cfg Config) *Engine {
	if cfg.N < 3 {
		panic("simnet: need N >= 3")
	}
	if cfg.Law == nil {
		cfg.Law = churn.ZeroLaw{}
	}
	if cfg.Degree == 0 {
		cfg.Degree = 8
	}
	if cfg.Degree < 2 || cfg.Degree%2 != 0 {
		panic("simnet: degree must be even and >= 2")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	var grid shard.Grid
	if cfg.Shards > 0 {
		grid = shard.New(cfg.Shards)
	} else {
		grid = shard.Pick(cfg.N, runtime.GOMAXPROCS(0))
	}
	cfg.Shards = grid.Count()
	e := &Engine{
		cfg:       cfg,
		g:         graph.New(cfg.N, cfg.Degree),
		topoRng:   rng.Derive(cfg.AdversarySeed, 0xed6e),
		adv:       churn.NewAdversary(cfg.N, cfg.AdversarySeed, cfg.Strategy, cfg.Law),
		ids:       make([]NodeID, cfg.N),
		slotIndex: newSlotIndex(2*cfg.N + 1),
		joinRound: make([]int32, cfg.N),
		nodeRng:   make([]*rng.Stream, cfg.N),
		inbox:     make([][]Msg, cfg.N),
		nextInbox: make([][]Msg, cfg.N),
		faultSeed: rng.Hash(cfg.AdversarySeed, 0xfa017),
		routeSeed: rng.Hash(cfg.ProtocolSeed, 0x4007e),
		workers:   workers,
		grid:      grid,
		shardOut:  make([]routeShard, grid.Count()),
		slotLoc:   grid.LocTable(cfg.N),
		reg:       cfg.Telemetry,
		em:        newEngineMetrics(cfg.Telemetry),
	}
	e.g.FillRandomRegular(e.topoRng)
	for sh := range e.shardOut {
		e.shardOut[sh].xfer = make([][]routedRef, grid.Count())
		e.shardOut[sh].ctx = &Ctx{}
	}
	for p := range e.arenas {
		e.arenas[p] = make([]inboxArena, grid.Count())
		for sh := range e.arenas[p] {
			lo, hi := grid.Bounds(sh, cfg.N)
			e.arenas[p][sh].off = make([]int32, hi-lo+1)
			e.arenas[p][sh].counts = make([]int32, hi-lo)
		}
	}
	e.nextID = 1
	for s := 0; s < cfg.N; s++ {
		e.placeNewNode(s, 0)
	}
	if cfg.Routing.Mode == RoutingOverlay {
		e.initRouter()
	}
	e.reg.RegisterCollector(e.collectMemory)
	return e
}

// collectMemory is the engine's row of the memory ledger: who owns the
// message bytes. Each gauge is a buffer family's capacity times its element
// size, summed over shards, read only when a snapshot is taken — nothing is
// counted per message. Capacities are a function of the message history,
// so the values are the same at any worker count.
func (e *Engine) collectMemory(emit func(name string, kind telemetry.Kind, v int64)) {
	const (
		msgSize  = int(unsafe.Sizeof(Msg{}))
		refSize  = int(unsafe.Sizeof(routedRef{}))
		cellSize = int(unsafe.Sizeof(payload{}))
	)
	var out, xfer, inbox, slabs int
	for sh := range e.shardOut {
		rs := &e.shardOut[sh]
		out += cap(rs.out) * msgSize
		for _, refs := range rs.xfer {
			xfer += cap(refs) * refSize
		}
		for p := range rs.pay {
			slabs += cap(rs.pay[p].cells) * cellSize
		}
	}
	for p := range e.arenas {
		for sh := range e.arenas[p] {
			inbox += cap(e.arenas[p][sh].msgs) * msgSize
		}
	}
	emit("dynp2p_engine_mem_out_bytes", telemetry.KindGauge, int64(out))
	emit("dynp2p_engine_mem_xfer_bytes", telemetry.KindGauge, int64(xfer))
	emit("dynp2p_engine_mem_inbox_arena_bytes", telemetry.KindGauge, int64(inbox))
	emit("dynp2p_engine_mem_payload_slab_bytes", telemetry.KindGauge, int64(slabs))
	emit("dynp2p_engine_mem_routed_arena_bytes", telemetry.KindGauge, int64(cap(e.routedArena.msgs)*msgSize))
}

// newSlotIndex returns an id->slot table of the given length with every
// entry marked departed.
func newSlotIndex(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// placeNewNode installs a fresh identity in slot s at the given round.
func (e *Engine) placeNewNode(s, round int) NodeID {
	if old := e.ids[s]; old != 0 {
		e.slotIndex[old] = -1
	}
	id := e.nextID
	e.nextID++
	if int(id) >= len(e.slotIndex) {
		grown := newSlotIndex(max(2*len(e.slotIndex), int(id)+1))
		copy(grown, e.slotIndex)
		e.slotIndex = grown
	}
	e.ids[s] = id
	e.slotIndex[id] = int32(s)
	e.joinRound[s] = int32(round)
	if e.nodeRng[s] == nil {
		e.nodeRng[s] = rng.Derive(e.cfg.ProtocolSeed, uint64(id))
	} else {
		// Recycle the slot's Stream object: same derived sequence as a
		// fresh Derive, no allocation on the churn path.
		e.nodeRng[s].ReseedDerived(e.cfg.ProtocolSeed, uint64(id))
	}
	return id
}

// N returns the stable network size.
func (e *Engine) N() int { return e.cfg.N }

// Degree returns the topology degree.
func (e *Engine) Degree() int { return e.cfg.Degree }

// Round returns the current round number.
func (e *Engine) Round() int { return e.round }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Graph returns the current topology over slots.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Workers returns the engine's resolved worker count (Config.Workers
// with 0 mapped to GOMAXPROCS and clamped to N). Round hooks that run
// their own sharded passes use it so one knob controls the whole round.
func (e *Engine) Workers() int { return e.workers }

// Grid returns the engine's slot-shard grid, fixed at construction
// (Config.Shards). Round hooks that shard their own per-slot state (the
// walk soup, the self-healing overlay) use the same grid, so their
// staging exchanges and the engine's agree on slot ownership.
func (e *Engine) Grid() shard.Grid { return e.grid }

// EdgeMode returns the topology's edge-dynamics mode, fixed for the run
// at construction (Config.EdgeMode).
func (e *Engine) EdgeMode() EdgeMode { return e.cfg.EdgeMode }

// IDAt returns the id occupying slot s.
func (e *Engine) IDAt(s int) NodeID { return e.ids[s] }

// slotOf resolves a live id to its slot via the dense table.
func (e *Engine) slotOf(id NodeID) (int32, bool) {
	if uint64(id) >= uint64(len(e.slotIndex)) {
		return -1, false
	}
	s := e.slotIndex[id]
	return s, s >= 0
}

// SlotOf returns the slot of a live id, or (-1, false) if it has departed.
func (e *Engine) SlotOf(id NodeID) (int, bool) {
	s, ok := e.slotOf(id)
	return int(s), ok
}

// IsLive reports whether id is currently in the network.
func (e *Engine) IsLive(id NodeID) bool {
	_, ok := e.slotOf(id)
	return ok
}

// JoinRound returns the round slot s's occupant joined.
func (e *Engine) JoinRound(s int) int { return int(e.joinRound[s]) }

// ChurnedThisRound returns the slots replaced at the start of the current
// round. The slice is owned by the engine; do not retain it.
func (e *Engine) ChurnedThisRound() []int { return e.churned }

// ReplacedInRound reports whether slot's current occupant was churned in
// at the start of the given round: it answers for the occupant's own join
// round, not for earlier occupancies of the slot (the walk ring keeps its
// own per-round record for those). This is the O(1) per-slot form of
// ChurnedThisRound, for sharded round hooks (e.g. the walk soup's columnar
// scatter) that fold churn handling into a parallel pass over slots and
// cannot share an iteration over the churned list. The round is explicit
// because hooks run before the engine's round counter advances while
// between-rounds callers see it already incremented: pass the hook's round
// argument, or Round()-1 after RunRound returns.
func (e *Engine) ReplacedInRound(slot, round int) bool {
	return round > 0 && e.joinRound[slot] == int32(round)
}

// AddHook registers a round hook, run in registration order each round.
// The hook's profiler phase is labelled hookN; AddNamedHook gives it a
// meaningful name.
func (e *Engine) AddHook(h RoundHook) {
	e.AddNamedHook(fmt.Sprintf("hook%d", len(e.hooks)), h)
}

// AddNamedHook registers a round hook under a name used as its phase
// label in round profiles (e.g. "soup", "overlay").
func (e *Engine) AddNamedHook(name string, h RoundHook) {
	e.hooks = append(e.hooks, h)
	e.hookNames = append(e.hookNames, name)
}

// Telemetry returns the engine's metrics registry.
func (e *Engine) Telemetry() *telemetry.Registry { return e.reg }

// SetTracer installs (or, with nil, removes) the operation-lifecycle
// tracer. Protocols fetch it via Tracer() to stamp and record sampled
// operations; the engine closes its round after routing. Call between
// rounds.
func (e *Engine) SetTracer(t *telemetry.Tracer) { e.tracer = t }

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// EnableProfiling switches on the round-phase profiler and returns it.
// Call after all hooks are registered so each gets its own phase; the
// phase order matches RunRound: churn, topology, deliver, one phase per
// hook, routed, handlers, route. The routed phase is present regardless
// of routing mode (it measures ~0 under RoutingOracle) so phase indices
// never depend on configuration. Wall-clock only — profiler output is
// outside the determinism contract.
func (e *Engine) EnableProfiling() *telemetry.PhaseProfiler {
	if e.prof != nil {
		return e.prof
	}
	names := []string{"churn", "topology", "deliver"}
	names = append(names, e.hookNames...)
	names = append(names, "routed", "handlers", "route")
	e.prof = telemetry.NewPhaseProfiler(e.reg, names)
	return e.prof
}

// Profiler returns the round-phase profiler, or nil when profiling is off.
func (e *Engine) Profiler() *telemetry.PhaseProfiler { return e.prof }

// Metrics returns a snapshot of the run counters, assembled from the
// telemetry registry (the store of record).
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Rounds:           int(e.em.rounds.Value()),
		MsgsSent:         e.em.sent.Value(),
		MsgsDelivered:    e.em.delivered.Value(),
		MsgsDropped:      e.em.dropped.Value(),
		MsgsFaultDropped: e.em.faultDropped.Value(),
		MsgsDelayed:      e.em.delayed.Value(),
		BitsSent:         e.em.bitsSent.Value(),
		Replacements:     e.em.replacements.Value(),
		MaxNodeBitsRound: e.em.maxNodeBits.Value(),
	}
}

// KindCount returns what the handlers have sent of the given kind so far,
// summed over the shards: the same at any worker count. Call between
// rounds.
func (e *Engine) KindCount(kind uint8) KindCount {
	var t KindCount
	for sh := range e.shardOut {
		c := e.shardOut[sh].kinds[kind]
		t.Msgs += c.Msgs
		t.Bits += c.Bits
	}
	return t
}

// Ctx is the per-node view passed to Handler.HandleRound. It is reused
// between nodes: neither the Ctx nor its Inbox may be retained after
// HandleRound returns.
type Ctx struct {
	E     *Engine
	Round int
	Slot  int
	Shard int // the slot's telemetry shard: pass to Counter.Add/Tracer.Emit
	ID    NodeID
	Rand  *rng.Stream
	Inbox []Msg

	out   *[]Msg          // the shard's send buffer
	pay   *payloadSlab    // the shard's payload cells for this round
	kinds *[256]KindCount // the shard's per-kind send counts
	seq   uint32
	bits  int64
}

// SendMsg queues an id-addressed message from this node and returns it for
// the handler to fill in. How it travels is the run's routing mode
// (Config.Routing): under RoutingOracle it is delivered at the start of
// the next round, and only if the target is still live then; under
// RoutingOverlay it walks the expander edge-by-edge toward the target,
// arriving the next round unless it parks at a congested slot or drops.
//
// The message is built in place: the returned pointer is the message's
// slot in the shard's send buffer, already zeroed and stamped with the
// sender and its sequencing. Set Item, Aux, Aux2 and Trace through it,
// attach a payload with SetPayload, and do not use it after the next send
// of this HandleRound (the buffer may have moved) or assign a whole Msg
// through it (that would overwrite the stamp).
func (c *Ctx) SendMsg(to NodeID, kind uint8) *Msg { return c.emplace(to, kind) }

// SendKeyed is SendMsg for holder-seeking messages: under RoutingOverlay
// the walk also ends at any slot (or neighbour) currently holding the item
// the handler names in Item, rewriting To to the holder. Under
// RoutingOracle it is SendMsg.
func (c *Ctx) SendKeyed(to NodeID, kind uint8) *Msg {
	m := c.emplace(to, kind)
	m.keyed = true
	return m
}

// emplace is the one send path: it grows the shard's send buffer by one
// message, zeroes it, fills in the addressee, the sender identity and the
// sequencing, and charges the header's bits to the sender and its kind.
func (c *Ctx) emplace(to NodeID, kind uint8) *Msg {
	b := *c.out
	n := len(b)
	if n == cap(b) {
		b = slices.Grow(b, 1)
	}
	b = b[:n+1]
	*c.out = b
	m := &b[n]
	*m = Msg{}
	m.From, m.To, m.Kind = c.ID, to, kind
	m.sentRound, m.srcSlot, m.seq = int32(c.Round), int32(c.Slot), c.seq
	c.seq++
	c.bits += headerBits
	k := &c.kinds[kind]
	k.Msgs++
	k.Bits += headerBits
	return m
}

// SetPayload attaches an id list and/or a data blob to m, a message this
// HandleRound is building (see SendMsg), and charges their bits to the
// sender and m's kind. Either may be empty; a message takes a payload at
// most once.
// The slices are not copied and must stay untouched until the message has
// been delivered. Panics if either exceeds MaxPayloadLen: the modelled
// wire format cannot express it, so sending one is a protocol bug.
func (c *Ctx) SetPayload(m *Msg, ids []NodeID, blob []byte) {
	if len(ids) > MaxPayloadLen || len(blob) > MaxPayloadLen {
		panic(fmt.Sprintf("simnet: payload exceeds MaxPayloadLen (%d ids, %d blob bytes)",
			len(ids), len(blob)))
	}
	if m.payload != nil {
		panic("simnet: SetPayload called twice on one message")
	}
	if len(ids) == 0 && len(blob) == 0 {
		return
	}
	p := c.pay.alloc()
	p.ids, p.blob = ids, blob
	m.payload = p
	b := int64(payloadBits(ids, blob))
	c.bits += b
	c.kinds[m.Kind].Bits += b
}

// NeighborSlots returns the node's current neighbour slots (aliased; do not
// modify).
func (c *Ctx) NeighborSlots() []int32 { return c.E.Graph().Neighbors(c.Slot) }

// NeighborIDs appends the ids of the node's current neighbours to dst.
func (c *Ctx) NeighborIDs(dst []NodeID) []NodeID {
	for _, s := range c.NeighborSlots() {
		dst = append(dst, c.E.ids[s])
	}
	return dst
}

// RunRound advances the simulation one round:
// churn → topology → hooks → handlers → routing.
// The first call must pass the engine's initial round (0), which performs
// the initial OnJoin for every node and runs a full round.
func (e *Engine) RunRound(h Handler) {
	round := e.round
	prof := e.prof
	if prof != nil {
		prof.Begin()
	}
	if round == 0 {
		// Initial population joins; no churn at round 0.
		e.churned = e.churned[:0]
		if h != nil {
			for s := 0; s < e.cfg.N; s++ {
				h.OnJoin(e, s, e.ids[s], 0)
			}
		}
		if prof != nil {
			prof.Lap(0) // churn
			prof.Lap(1) // topology
		}
	} else {
		// 1. Adversarial churn.
		batch := e.adv.Batch(round)
		e.churned = append(e.churned[:0], batch...)
		for _, s := range e.churned {
			if h != nil {
				h.OnLeave(e, s, e.ids[s], round)
			}
			id := e.placeNewNode(s, round)
			// Pending messages addressed to the departed occupant die
			// with it.
			e.em.dropped.Add(0, int64(len(e.nextInbox[s])))
			e.nextInbox[s] = nil
			if h != nil {
				h.OnJoin(e, s, id, round)
			}
		}
		if e.router != nil {
			// Routed messages parked at a replaced slot die with it —
			// dropped and accounted, never silently lost.
			e.router.DropQueuedAt(e.churned)
		}
		e.em.replacements.Add(0, int64(len(e.churned)))
		if prof != nil {
			prof.Lap(0) // churn
		}
		// 2. Topology change: only the rerandomizing oracle touches edges
		// after round 0 (edges.go).
		if e.cfg.EdgeMode == EdgesRerandomize {
			e.g.FillRandomRegular(e.topoRng)
		}
		if prof != nil {
			prof.Lap(1) // topology
		}
	}

	// Swap inboxes: what was accumulated last round is delivered now.
	// One fused pass resets next-round inboxes and tallies deliveries. The
	// reset drops each view's capacity too: it points into an arena the
	// next exchange rewrites, so a fault-delayed message appended to an
	// inbox that got no fresh one must copy out rather than overwrite
	// another slot's run.
	e.inbox, e.nextInbox = e.nextInbox, e.inbox
	var delivered int64
	for s := range e.inbox {
		delivered += int64(len(e.inbox[s]))
		e.nextInbox[s] = nil
	}
	e.em.delivered.Add(0, delivered)
	e.deliverDelayed(round)
	if prof != nil {
		prof.Lap(2) // deliver
	}

	// 3. Hooks (walk soup etc), each its own profiler phase.
	for i, hook := range e.hooks {
		hook.StepRound(e, round)
		if prof != nil {
			prof.Lap(3 + i)
		}
	}

	// 4. Routed delivery (routing.go): in-flight overlay walkers advance
	// over this round's post-repair adjacency and land in this round's
	// inboxes; congested ones park and resume next round.
	if e.router != nil {
		e.runRouted()
	}
	if prof != nil {
		prof.Lap(3 + len(e.hooks)) // routed
	}

	// 5. Handlers, in parallel over slot shards. NopHandler is the
	// engine's own hooks-only no-op: it sends nothing and keeps no state,
	// so the per-slot handler sweep and the routing exchange are skipped
	// outright rather than executed vacuously.
	if _, nop := h.(NopHandler); h != nil && !nop {
		e.runHandlers(h, round)
		if prof != nil {
			prof.Lap(4 + len(e.hooks)) // handlers
		}
		// 6. Route: messages to live ids land in nextInbox; the rest drop.
		e.route()
		if prof != nil {
			prof.Lap(5 + len(e.hooks)) // route
		}
	}
	if e.tracer != nil {
		// Merge the round's staged trace events (serial, fixed shard
		// order) and update the lifecycle histograms.
		e.tracer.EndRound(int64(round))
	}
	if prof != nil {
		prof.EndRound(int64(round))
	}

	e.em.rounds.Inc(0)
	e.round++
}

// runHandlers runs HandleRound for every slot, workers claiming fixed slot
// shards. Each shard appends its slots' outgoing messages to its own
// buffer in (slot, seq) order, which is what makes the subsequent exchange
// — and therefore every inbox — canonically ordered with no sorting.
func (e *Engine) runHandlers(h Handler, round int) {
	e.grid.Run(e.workers, func(sh int) {
		rs := &e.shardOut[sh]
		rs.out = rs.out[:0]
		rs.bits, rs.maxBits = 0, 0
		pay := &rs.pay[round&1]
		pay.reset()
		lo, hi := e.grid.Bounds(sh, e.cfg.N)
		ctx := rs.ctx
		*ctx = Ctx{E: e, Round: round, Shard: sh, out: &rs.out, pay: pay, kinds: &rs.kinds}
		for s := lo; s < hi; s++ {
			ctx.Slot, ctx.ID, ctx.Rand, ctx.Inbox = s, e.ids[s], e.nodeRng[s], e.inbox[s]
			ctx.seq, ctx.bits = 0, 0
			h.HandleRound(ctx)
			rs.bits += ctx.bits
			if ctx.bits > rs.maxBits {
				rs.maxBits = ctx.bits
			}
		}
	})
	var total, maxBits int64
	for sh := range e.shardOut {
		total += e.shardOut[sh].bits
		if e.shardOut[sh].maxBits > maxBits {
			maxBits = e.shardOut[sh].maxBits
		}
	}
	e.em.bitsSent.Add(0, total)
	e.em.maxNodeBits.SetMax(maxBits)
}

// route moves this round's outgoing messages on, by the run's routing
// mode. Under RoutingOracle the sharded exchange places them in next-round
// inboxes; under RoutingOverlay the serial merge below hands them to the
// overlay router, which walks them in the next round's routed phase.
func (e *Engine) route() {
	if e.router == nil {
		e.exchange()
	}
	// Serial merge in fixed shard order. Under the overlay it first gives
	// the shard's sends to the router in canonical order, after the same
	// faultFate call the exchange's scatter makes. Then tallies and
	// fault-delayed messages: e.delayed stays sorted by the canonical
	// (sentRound, srcSlot, seq) key across rounds because rounds are
	// appended in increasing sentRound order and shards in increasing
	// srcSlot order.
	for sh := range e.shardOut {
		rs := &e.shardOut[sh]
		if e.router != nil {
			for i := range rs.out {
				m := &rs.out[i]
				if e.cfg.Fault != nil && e.faultFate(rs, m) {
					continue
				}
				e.sendToRouter(m)
			}
		}
		e.em.sent.Add(0, int64(len(rs.out)))
		e.em.dropped.Add(0, rs.dropped)
		e.em.faultDropped.Add(0, rs.faultDropped)
		e.em.delayed.Add(0, rs.delayedCnt)
		e.delayed = append(e.delayed, rs.delayed...)
		rs.delayed = rs.delayed[:0]
		rs.dropped, rs.faultDropped, rs.delayedCnt = 0, 0, 0
	}
}

// exchange is the oracle's two-phase sharded message exchange. Scatter:
// workers walk source shards, decide each message's fault fate (a pure
// hash of its identity), resolve the destination id to a slot through the
// dense table, and stage the message in the (source shard, destination
// shard) transfer buffer. Gather: workers walk destination shards and
// merge source shards in fixed index order, so each inbox receives
// messages ordered by (sender slot, sequence) — the canonical order —
// regardless of worker count.
func (e *Engine) exchange() {
	e.grid.Run(e.workers, func(sh int) {
		rs := &e.shardOut[sh]
		for dsh := range rs.xfer {
			rs.xfer[dsh] = rs.xfer[dsh][:0]
		}
		for i := range rs.out {
			m := &rs.out[i]
			if e.cfg.Fault != nil && e.faultFate(rs, m) {
				continue
			}
			dst, ok := e.slotOf(m.To)
			if !ok {
				rs.dropped++
				continue
			}
			dsh := e.slotLoc[dst] >> shard.LocalBits
			rs.xfer[dsh] = append(rs.xfer[dsh], routedRef{slot: dst, idx: uint32(i)})
		}
	})
	e.grid.Run(e.workers, func(dsh int) {
		// Counting-sort placement into the destination shard's flat arena
		// (see inboxArena): count per slot, turn counts into offsets, then
		// place each ref — source shards in fixed index order, so every
		// slot's run keeps the canonical (srcSlot, seq) order — and slice
		// the per-slot inbox views out of the buffer.
		ga := &e.arenas[e.round&1][dsh]
		counts := ga.counts
		for i := range counts {
			counts[i] = 0
		}
		loInt, _ := e.grid.Bounds(dsh, e.cfg.N)
		lo := int32(loInt)
		for ssh := range e.shardOut {
			for _, ref := range e.shardOut[ssh].xfer[dsh] {
				counts[ref.slot-lo]++
			}
		}
		total := int(shard.Offsets(counts, ga.off))
		if total == 0 {
			return // every view was already reset empty in the deliver phase
		}
		if cap(ga.msgs) < total {
			ga.msgs = make([]Msg, total, max(total, 2*cap(ga.msgs)))
		} else {
			ga.msgs = ga.msgs[:total]
		}
		copy(counts, ga.off[:len(counts)])
		msgs := ga.msgs
		for ssh := range e.shardOut {
			src := e.shardOut[ssh].out
			for _, ref := range e.shardOut[ssh].xfer[dsh] {
				l := ref.slot - lo
				pos := counts[l]
				counts[l] = pos + 1
				msgs[pos] = src[ref.idx]
			}
		}
		for l := range counts {
			a, b := ga.off[l], ga.off[l+1]
			if a != b {
				e.nextInbox[int(lo)+l] = msgs[a:b:b]
			}
		}
	})
}

// faultFate decides m's fate under the fault model (non-nil) from a pure
// hash of the message identity, so the fate is the same at any worker
// count. It reports whether the message was consumed — dropped, or queued
// in rs.delayed for a later round — and tallies it in rs.
func (e *Engine) faultFate(rs *routeShard, m *Msg) bool {
	rnd := rng.Hash(e.faultSeed, uint64(e.round), uint64(m.From), uint64(m.seq))
	drop, delay := e.cfg.Fault.Fate(e.round, m, rnd)
	switch {
	case drop:
		rs.faultDropped++
	case delay > 0:
		rs.delayedCnt++
		d := delayedMsg{deliverAt: e.round + 1 + delay, m: *m}
		if m.payload != nil {
			// The queue outlives the sender's slab: move the cell to the heap.
			cell := *m.payload
			d.m.payload = &cell
		}
		rs.delayed = append(rs.delayed, d)
	default:
		return false
	}
	return true
}

// insertCanonical places m into slot s's inbox at its canonical position
// (binary search on the (sentRound, srcSlot, seq) key). Only the
// fault-delay path pays for this; fresh messages arrive pre-ordered.
func (e *Engine) insertCanonical(s int32, m *Msg) {
	in := e.inbox[s]
	i := sort.Search(len(in), func(j int) bool { return msgBefore(m, &in[j]) })
	in = append(in, Msg{})
	copy(in[i+1:], in[i:])
	in[i] = *m
	e.inbox[s] = in
}

// Run advances the engine through rounds [current, current+rounds).
func (e *Engine) Run(h Handler, rounds int) {
	for i := 0; i < rounds; i++ {
		e.RunRound(h)
	}
}

// LiveIDs appends all currently live ids to dst in slot order.
func (e *Engine) LiveIDs(dst []NodeID) []NodeID {
	for _, id := range e.ids {
		dst = append(dst, id)
	}
	return dst
}

// NopHandler is a Handler that does nothing; useful for running hooks only.
type NopHandler struct{}

// OnJoin implements Handler.
func (NopHandler) OnJoin(*Engine, int, NodeID, int) {}

// OnLeave implements Handler.
func (NopHandler) OnLeave(*Engine, int, NodeID, int) {}

// HandleRound implements Handler.
func (NopHandler) HandleRound(*Ctx) {}
