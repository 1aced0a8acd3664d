// Package simnet implements the synchronous dynamic-network engine of the
// paper's model (§2.1). Each round proceeds exactly in the model's order:
//
//  1. the adversary replaces up to its churn budget of nodes and rewires
//     the d-regular expander topology;
//  2. every live node learns its current neighbours, and the messages
//     sent to it last round are placed in its inbox; those addressed to a
//     node churn has just replaced die with it;
//  3. registered round hooks run (the random-walk soup lives here);
//  4. every live node's protocol handler runs with the messages that were
//     addressed to it, and may send new id-addressed messages;
//  5. outgoing messages are routed: a message to an id that has been
//     churned out is silently dropped — the model's failure mode. An
//     optional FaultModel (fault.go) may additionally drop or delay
//     messages at this point, modelling lossy links on top of churn.
//
// Under RoutingOverlay (routing.go) step 2 places nothing: a message walks
// the overlay after the hooks have repaired it, and is placed then.
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
// merges source shards in fixed index order, so every inbox arrives
// sorted by (send round, sender slot, per-sender sequence) without any
// sorting. See DESIGN.md §6 for the engine internals.
package simnet

import (
	"fmt"
	"runtime"
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
// A Msg is a header: 64 bytes, one cache line, and one pointer word
// (TestMsgLayout; the field table with offsets is in DESIGN.md §6). The few
// messages that carry an id list, a data blob or a trace tag hold them in
// a pooled payload cell behind that pointer, attached with Ctx.SetPayload
// and Ctx.SetTrace and read with IDs, Blob, Trace and Hops.
// Fields are ordered widest first so the struct has no padding holes.
type Msg struct {
	From NodeID
	To   NodeID
	Item uint64 // item key (or unused)
	Aux  uint64 // auxiliary value (round numbers, piece indices, ...)
	Aux2 uint64 // second auxiliary (e.g. the searcher id a reply routes to)

	// payload is the cell holding the id list, the blob and the trace tag,
	// nil for a header-only untraced message. It points into the sender
	// shard's payload cells (routeShard.pay), which are recycled two rounds
	// after the send, or, for a dead letter dropped at its send, at the
	// context's scratch cell (Ctx.emplace); whoever keeps a Msg past the
	// round after its send must copy the cell out (faultFate).
	payload *payload

	// (sentRound, srcSlot, seq) is unique per message and is the canonical
	// inbox order. Every message arrives already ordered: route hands a
	// round's fault-released messages on ahead of its fresh sends, and both
	// the sharded exchange and the router keep sender slots in fixed order.
	sentRound int32
	srcSlot   int32  // sender's slot at send time
	seq       uint32 // per-sender per-round sequence

	Kind uint8

	// keyed marks a holder-seeking message (SendKeyed): the overlay walk
	// may terminate early at any current holder of Item. Only the router
	// reads it.
	keyed bool
}

// payload is the out-of-header part of a message: the id list (committee
// rosters etc.) and the data blob (item copies, IDA pieces), each at most
// MaxPayloadLen long, and the trace tag with its hop count. The slices are
// the sender's; the engine never copies their contents.
//
// trace is an observability tag: when an operation is sampled for
// lifecycle tracing (telemetry.Tracer), protocol messages belonging to it
// carry the operation's nonzero trace id (Ctx.SetTrace), and the receiver
// records a hop event. hops is the true network path length a traced
// message travelled when it was delivered over the overlay
// (RoutingOverlay); 0 for oracle-delivered messages. Both are out-of-band
// telemetry, not part of the modelled wire format, so neither counts
// toward Bits(); only sampled operations have a nonzero trace, so an
// untraced run makes no cell for them.
type payload struct {
	ids   []NodeID
	blob  []byte
	trace uint64
	hops  int32
}

// IDs returns the message's id-list payload, nil if it has none. The list
// is the sender's, never modified after the send (SetPayload), so the
// receiver may keep it past its HandleRound; the slice is capped at its
// length, so an append to it copies instead of writing into the sender's
// array.
func (m *Msg) IDs() []NodeID {
	if m.payload == nil {
		return nil
	}
	ids := m.payload.ids
	return ids[:len(ids):len(ids)]
}

// Blob returns the message's data payload, nil if it has none; it may be
// kept as IDs may.
func (m *Msg) Blob() []byte {
	if m.payload == nil {
		return nil
	}
	blob := m.payload.blob
	return blob[:len(blob):len(blob)]
}

// Trace returns the message's trace tag, 0 if its operation is not traced.
func (m *Msg) Trace() uint64 {
	if m.payload == nil {
		return 0
	}
	return m.payload.trace
}

// Hops returns the overlay path length of a traced message delivered over
// the overlay, 0 otherwise.
func (m *Msg) Hops() int32 {
	if m.payload == nil {
		return 0
	}
	return m.payload.hops
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
	Degree        int            // expander degree (even; a power of two under RoutingOverlay)
	EdgeMode      EdgeMode       // edge dynamics (edges.go)
	AdversarySeed uint64         // drives churn schedule and topology
	ProtocolSeed  uint64         // drives all protocol randomness
	Strategy      churn.Strategy // which slots get churned
	Law           churn.Law      // how many per round
	Fault         FaultModel     // message-level faults for the run; nil = reliable links
	Workers       int            // size of the crew every parallel phase runs on; 0 = GOMAXPROCS

	// Shards is the slot-shard grid count (power of two ≤ shard.MaxCount).
	// 0 picks shard.Pick(N, GOMAXPROCS) — enough shards that the slot
	// ranges stay cache-sized and every core finds work. New writes the
	// resolved count back into the engine's Config. Like Workers it is a
	// throughput knob only: a run's results are the same at any shard
	// count (package shard).
	Shards int

	// Routing selects how every message a handler sends travels, for the
	// whole run: RoutingOracle (the zero value) teleports it to its
	// addressee through the sharded exchange; RoutingOverlay walks it
	// edge-by-edge over the live topology (routing.go, internal/route).
	Routing RoutingConfig
}

// Metrics aggregates engine-level counters for the current run. The struct
// is a *view*: Engine.Metrics() assembles it from the same stores the
// dynp2p_engine_* series read (the registry, the per-kind send tally and
// the round counter), so the two can never disagree.
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

// engineMetrics holds the engine's registry handles. The gather counts
// what it places and drops in its destination shard's stripe; every other
// engine-side update happens in a serial round phase (churn, the handlers'
// tally, route's tally merge) and goes to shard 0. What the handlers sent
// is not here: the per-kind tally (routeShard.kinds) is its one record, and
// the round is Engine.round; collect exports both.
type engineMetrics struct {
	delivered    telemetry.Counter
	dropped      telemetry.Counter
	faultDropped telemetry.Counter
	delayed      telemetry.Counter
	replacements telemetry.Counter
	maxNodeBits  telemetry.Gauge
}

func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	return engineMetrics{
		delivered:    reg.Counter("dynp2p_engine_msgs_delivered_total", "protocol messages delivered"),
		dropped:      reg.Counter("dynp2p_engine_msgs_dropped_total", "messages addressed to churned-out ids"),
		faultDropped: reg.Counter("dynp2p_engine_msgs_fault_dropped_total", "messages lost to the fault model"),
		delayed:      reg.Counter("dynp2p_engine_msgs_delayed_total", "messages deferred by the fault model"),
		replacements: reg.Counter("dynp2p_engine_replacements_total", "churn replacements performed"),
		maxNodeBits:  reg.Gauge("dynp2p_engine_max_node_bits_round", "largest per-node bits sent in any single round"),
	}
}

// routedRef identifies a message staged for delivery: the destination slot
// it resolved to, plus its position in its source's send store, which
// shard.Blocks.At splits into block and offset by shift and mask. An 8-byte
// reference rides the exchange instead of a 64-byte Msg copy; the gather
// phase copies each message once, straight into its inbox — in both
// routing modes the only Msg-sized copy between a handler's send and the
// inbox.
type routedRef struct {
	slot int32  // destination slot
	idx  uint32 // position in the source's out store
}

// msgRef is what an overlay walker carries for its message: the source's
// index in Engine.sources and the message's position in that source's out.
// Round r's sends and releases stay in those buffers through round r+1's
// routed phase, which walks them and stages each delivery where it was
// sent: runHandlers and release reset them only after it.
type msgRef struct {
	src, idx uint32
}

// xferRoom is the room each ref buffer is carved with (shard.Carve). Most
// (source, destination shard) pairs carry a few refs a round on a routed
// run's small grid; growing every buffer from zero cost the overlay about
// 160 allocations a round at n=1024 (64 shards).
const xferRoom = 16

// routeShard is one source of the message exchange: its messages in
// canonical order, and per destination shard the refs to those bound
// there, plus its fault-delayed messages and metric tallies. Each slot
// shard's sends are one, with its handler context and payload slabs; the
// fault-released messages of the round are another, merged ahead of them
// all. The refs are written by the oracle's scatter in route and wait
// there for next round's gather, after churn, or by the overlay's routed
// phase and consumed by the gather that follows it. All buffers are
// reused across rounds, and the two append-only stores, the messages and
// the payload cells, grow by fixed blocks (shard.Blocks): a sent message
// and its cell never move, and a store allocates only what it holds. The
// struct is padded to an exact multiple of the cache line on every word
// size (asserted by TestRouteShardCacheAligned, which CI also runs under
// GOARCH=386), so workers filling adjacent shards never false-share — the
// same discipline the engine's original per-worker buffers used.
type routeShard struct {
	routeFields
	_ [(64 - unsafe.Sizeof(routeFields{})%64) % 64]byte
}

// routeFields is what a routeShard holds, before its padding.
type routeFields struct {
	out     shard.Blocks[Msg] // canonical (sentRound, srcSlot, seq) order
	xfer    [][]routedRef     // grid-sized: refs to messages bound for each destination shard
	delayed []delayedMsg      // fault-delayed messages from this shard, canonical order
	ctx     *Ctx              // reusable handler context for this shard's slots

	// pay holds the payload cells of this shard's sends, double-buffered
	// by round parity: round r's handlers take cells from pay[r&1], round
	// r+1's inboxes read them, and round r+2 resets the store, which clears
	// the cells' references so a recycled block pins no sender's arrays.
	// Only a few percent of messages carry a payload, but a heap cell for
	// each was ~15k allocations a round on the cached workload.
	pay [2]shard.Blocks[payload]

	maxBits      int64 // max per-node bits in this shard this round
	dropped      int64
	faultDropped int64
	delayedCnt   int64

	// kinds counts this shard's sends by Msg.Kind over the whole run
	// (Engine.KindCount and Engine.Metrics sum the shards).
	kinds [256]KindCount
}

// KindCount is what the handlers sent of one message kind: messages, their
// modelled wire bits (Msg.Bits), and how many of the messages were dead at
// send — addressed to an id already gone when sent. Under RoutingOracle
// each of those is also one of Metrics.MsgsDropped; under RoutingOverlay a
// keyed one may still end at a holder of its item.
type KindCount struct {
	Msgs, Bits, Dead int64
}

// Engine is the simulator. Create with New, drive with RunRound.
type Engine struct {
	cfg Config
	adv *churn.Adversary

	// g is the topology over slots; topoRng is the oracle's stream that
	// redraws it every round under EdgesRerandomize (edges.go).
	g       *graph.Graph
	topoRng *rng.Stream

	ids       []NodeID     // slot -> occupant id
	joinRound []int32      // slot -> round the occupant joined
	nodeRng   []rng.Stream // slot -> occupant's stream, reseeded on join
	nextID    NodeID

	// slotIndex maps id -> occupied slot, or -1 once the id has departed.
	// Ids are dense, monotonically assigned, and never reused, so a flat
	// array replaces the hash map the hot routing path used to probe: one
	// bounds check and one load per resolution. It grows geometrically
	// with the id space (4 bytes per id ever created — fine for
	// simulation lifetimes).
	slotIndex []int32

	// arenas are the per-destination-shard inbox stores: slot s's inbox is
	// the run of s's shard at s's local index. Each round's gather rewrites
	// them after churn, so a departed occupant's messages are never placed.
	arenas []shard.Runs[Msg]

	faultSeed uint64       // derived from the adversary seed
	delayed   []delayedMsg // fault-delayed messages, canonical order

	// sources are the exchange's sources in merge order: first the
	// released source, the delayed messages route hands on in the round
	// before they are due, ahead of its fresh sends; then shardOut, every
	// slot shard's sends in index order. A msgRef's src indexes it.
	sources []routeShard

	churned []int // slots replaced in the current round

	// slotLoc is the slot → packed (shard, local) table (shard.LocTable):
	// one load resolves a destination slot's shard on the routing hot path
	// instead of a hardware divide per message.
	slotLoc []uint32

	grid shard.Grid // slot-shard grid, fixed at construction

	hooks     []RoundHook
	hookNames []string // parallel to hooks, for profiler phase labels

	// Overlay routing state (routing.go): the walker router, the
	// protocol's key-holder predicate, and the per-message walk-seed salt.
	router    *route.Router[msgRef]
	heldKeys  func(slot, round int, dst []uint64) []uint64
	routeSeed uint64

	reg    *telemetry.Registry
	em     engineMetrics
	tracer *telemetry.Tracer
	prof   *telemetry.PhaseProfiler

	crew     *shard.Crew
	shardOut []routeShard // sources[1:]: [shard.Count] handler output
	// The crew's per-round phases, bound once, and the handler phase's handler.
	handleFn, exchangeFn, gatherFn func(sh int)
	handler                        Handler

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
	if cfg.Routing.Mode == RoutingOverlay && cfg.Degree&(cfg.Degree-1) != 0 {
		panic("simnet: overlay routing needs a power-of-two degree")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var grid shard.Grid
	if cfg.Shards > 0 {
		grid = shard.New(cfg.Shards)
	} else {
		grid = shard.Pick(cfg.N, runtime.GOMAXPROCS(0))
	}
	cfg.Shards = grid.Count()
	reg := telemetry.NewRegistry()
	e := &Engine{
		cfg:       cfg,
		g:         graph.New(cfg.N, cfg.Degree),
		topoRng:   rng.Derive(cfg.AdversarySeed, 0xed6e),
		adv:       churn.NewAdversary(cfg.N, cfg.AdversarySeed, cfg.Strategy, cfg.Law),
		ids:       make([]NodeID, cfg.N),
		slotIndex: newSlotIndex(2*cfg.N + 1),
		joinRound: make([]int32, cfg.N),
		nodeRng:   make([]rng.Stream, cfg.N),
		faultSeed: rng.Hash(cfg.AdversarySeed, 0xfa017),
		routeSeed: rng.Hash(cfg.ProtocolSeed, 0x4007e),
		crew:      shard.NewCrew(min(workers, cfg.N, grid.Count())),
		grid:      grid,
		sources:   make([]routeShard, 1+grid.Count()),
		slotLoc:   grid.LocTable(cfg.N),
		reg:       reg,
		em:        newEngineMetrics(reg),
	}
	e.handleFn, e.exchangeFn, e.gatherFn = e.handleShard, e.exchange, e.gather
	e.g.FillRandomRegular(e.topoRng)
	e.arenas = make([]shard.Runs[Msg], grid.Count())
	for i := range e.sources {
		e.sources[i].xfer = shard.Carve[routedRef](grid.Count(), xferRoom)
	}
	e.shardOut = e.sources[1:]
	for sh := range e.shardOut {
		e.shardOut[sh].ctx = &Ctx{}
	}
	e.nextID = 1
	for s := 0; s < cfg.N; s++ {
		e.placeNewNode(s, 0)
	}
	if cfg.Routing.Mode == RoutingOverlay {
		e.initRouter()
	}
	e.reg.RegisterCollector(e.collect)
	return e
}

// collect exports the engine's counts that live outside the registry: the
// rounds run, what the handlers sent (the per-kind tally's sum), and the
// engine's row of the memory ledger — who owns the message bytes. Each
// memory gauge is a buffer family's capacity times its element size,
// summed over every source (the released one included) and shard, read
// only when a snapshot is taken — nothing is counted per message.
// Capacities are a function of the message history, so the values are the
// same at any worker count.
func (e *Engine) collect(emit func(name string, kind telemetry.Kind, v int64)) {
	sent := e.sentTotal()
	emit("dynp2p_engine_rounds_total", telemetry.KindCounter, int64(e.round))
	emit("dynp2p_engine_msgs_sent_total", telemetry.KindCounter, sent.Msgs)
	emit("dynp2p_engine_bits_sent_total", telemetry.KindCounter, sent.Bits)

	const (
		msgSize  = int(unsafe.Sizeof(Msg{}))
		refSize  = int(unsafe.Sizeof(routedRef{}))
		cellSize = int(unsafe.Sizeof(payload{}))
	)
	var out, xfer, inbox, slabs int
	for i := range e.sources {
		rs := &e.sources[i]
		out += rs.out.Cap() * msgSize
		for _, refs := range rs.xfer {
			xfer += cap(refs) * refSize
		}
		for p := range rs.pay {
			slabs += rs.pay[p].Cap() * cellSize
		}
	}
	for sh := range e.arenas {
		inbox += e.arenas[sh].Cap() * msgSize
	}
	emit("dynp2p_engine_mem_out_bytes", telemetry.KindGauge, int64(out))
	emit("dynp2p_engine_mem_xfer_bytes", telemetry.KindGauge, int64(xfer))
	emit("dynp2p_engine_mem_inbox_arena_bytes", telemetry.KindGauge, int64(inbox))
	emit("dynp2p_engine_mem_payload_slab_bytes", telemetry.KindGauge, int64(slabs))
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
	e.nodeRng[s].ReseedDerived(e.cfg.ProtocolSeed, uint64(id))
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

// Crew returns the engine's worker crew, Config.Workers workers (0 maps
// to GOMAXPROCS) clamped to N and the shard count. Round hooks run their
// parallel phases on it, so one crew and one knob serve the whole round.
func (e *Engine) Crew() *shard.Crew { return e.crew }

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
// stores of record: the telemetry registry, the per-kind send tally and
// the round counter. Call between rounds.
func (e *Engine) Metrics() Metrics {
	sent := e.sentTotal()
	return Metrics{
		Rounds:           e.round,
		MsgsSent:         sent.Msgs,
		MsgsDelivered:    e.em.delivered.Value(),
		MsgsDropped:      e.em.dropped.Value(),
		MsgsFaultDropped: e.em.faultDropped.Value(),
		MsgsDelayed:      e.em.delayed.Value(),
		BitsSent:         sent.Bits,
		Replacements:     e.em.replacements.Value(),
		MaxNodeBitsRound: e.em.maxNodeBits.Value(),
	}
}

// sentTotal returns what the handlers have sent of every kind so far.
func (e *Engine) sentTotal() KindCount {
	var t KindCount
	for sh := range e.shardOut {
		for _, c := range &e.shardOut[sh].kinds {
			t.Msgs += c.Msgs
			t.Bits += c.Bits
		}
	}
	return t
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
		t.Dead += c.Dead
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

	out     *shard.Blocks[Msg]     // the shard's send buffer
	pay     *shard.Blocks[payload] // the shard's payload cells for this round
	kinds   *[256]KindCount        // the shard's per-kind send counts
	dropped *int64                 // the shard's churn drops, if dead letters drop at the send
	seq     uint32
	bits    int64

	// dead and deadCell are the scratch message and cell a dead letter
	// dropped at its send is built in (emplace).
	dead     Msg
	deadCell payload
}

// SendMsg queues an id-addressed message from this node and returns it for
// the handler to fill in. How it travels is the run's routing mode
// (Config.Routing): under RoutingOracle it is delivered at the start of
// the next round, and only if the target is still live then; under
// RoutingOverlay it walks the expander edge-by-edge toward the target,
// arriving the next round unless its walk budget runs out or the target
// has left, in which case it drops.
//
// The message is built in place: the returned pointer is the message's
// slot in the shard's send buffer, already zeroed and stamped with the
// sender and its sequencing. Set Item, Aux and Aux2 through it and attach
// a payload with SetPayload and a trace tag with SetTrace, at any point of
// this HandleRound: the buffer grows by fixed blocks, so later sends never
// move the message. Do not keep the pointer past HandleRound (the engine
// routes the message after the handlers and reuses the buffer next
// round), and do not assign a whole Msg through it (that would overwrite
// the stamp). A dead letter, a message to an id already gone, may be a
// scratch message instead (emplace): finish it before the node's next
// send, which may reuse it.
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

// emplace is the one send path: it adds one zeroed message to the shard's
// send buffer, fills in the addressee, the sender identity and the
// sequencing, and charges the header's bits to the sender and its kind.
// A send to an id already gone counts in its kind's Dead. Under
// RoutingOracle with no fault model the scatter's liveness check is its
// only fate, and no churn runs before it, so such a dead letter drops here:
// it counts with the scatter's drops and is built in the context's scratch
// message and cell, reset at each dead send, never in the send buffer, the
// payload cells or the exchange.
func (c *Ctx) emplace(to NodeID, kind uint8) *Msg {
	k := &c.kinds[kind]
	_, live := c.E.slotOf(to)
	var m *Msg
	if live || c.dropped == nil {
		m = c.out.Add()
	} else {
		*c.dropped++
		c.deadCell = payload{}
		c.dead = Msg{payload: &c.deadCell}
		m = &c.dead
	}
	if !live {
		k.Dead++
	}
	m.From, m.To, m.Kind = c.ID, to, kind
	m.sentRound, m.srcSlot, m.seq = int32(c.Round), int32(c.Slot), c.seq
	c.seq++
	c.bits += headerBits
	k.Msgs++
	k.Bits += headerBits
	return m
}

// SetPayload attaches an id list and/or a data blob to m, a message this
// HandleRound is building (see SendMsg), and charges their bits to the
// sender and m's kind. Either may be empty; a message takes an id list and
// blob at most once, in the cell SetTrace made if it has one.
// The slices are not copied. A sent id list or blob is never modified
// again, by its sender or anyone else, so a receiver may keep it as its
// own state and many receivers may share it. Panics if either exceeds
// MaxPayloadLen: the modelled wire format cannot express it, so sending
// one is a protocol bug.
func (c *Ctx) SetPayload(m *Msg, ids []NodeID, blob []byte) {
	if len(ids) > MaxPayloadLen || len(blob) > MaxPayloadLen {
		panic(fmt.Sprintf("simnet: payload exceeds MaxPayloadLen (%d ids, %d blob bytes)",
			len(ids), len(blob)))
	}
	if p := m.payload; p != nil && (len(p.ids) > 0 || len(p.blob) > 0) {
		panic("simnet: SetPayload called twice on one message")
	}
	if len(ids) == 0 && len(blob) == 0 {
		return
	}
	p := c.cell(m)
	p.ids, p.blob = ids, blob
	b := int64(payloadBits(ids, blob))
	c.bits += b
	c.kinds[m.Kind].Bits += b
}

// SetTrace tags m, a message this HandleRound is building (see SendMsg),
// with its operation's trace id; an id of 0 (an untraced operation) leaves
// m as it is. The tag is telemetry, not wire: it charges no bits.
func (c *Ctx) SetTrace(m *Msg, id uint64) {
	if id != 0 {
		c.cell(m).trace = id
	}
}

// cell returns m's cell, first attaching a zeroed one from the shard's
// payload cells if m has none.
func (c *Ctx) cell(m *Msg) *payload {
	if m.payload == nil {
		m.payload = c.pay.Add()
	}
	return m.payload
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
// the initial OnJoin for every node and runs a full round. To run the
// hooks only, pass NopHandler{}.
func (e *Engine) RunRound(h Handler) {
	round := e.round
	prof := e.prof
	prof.Begin()
	if round == 0 {
		// Initial population joins; no churn at round 0.
		e.churned = e.churned[:0]
		for s := 0; s < e.cfg.N; s++ {
			h.OnJoin(e, s, e.ids[s], 0)
		}
		prof.Lap(0) // churn
		prof.Lap(1) // topology
	} else {
		// 1. Adversarial churn.
		batch := e.adv.Batch(round)
		e.churned = append(e.churned[:0], batch...)
		for _, s := range e.churned {
			h.OnLeave(e, s, e.ids[s], round)
			id := e.placeNewNode(s, round)
			h.OnJoin(e, s, id, round)
		}
		e.em.replacements.Add(0, int64(len(e.churned)))
		prof.Lap(0) // churn
		// 2. Topology change: only the rerandomizing oracle touches edges
		// after round 0 (edges.go).
		if e.cfg.EdgeMode == EdgesRerandomize {
			e.g.FillRandomRegular(e.topoRng)
		}
		prof.Lap(1) // topology
	}

	// Deliver: under RoutingOracle the gather places what last round's
	// route staged, fault-released messages included, and drops what was
	// bound for an occupant churn has just replaced.
	if e.router == nil {
		e.crew.Do(e.grid.Count(), e.gatherFn)
	}
	prof.Lap(2) // deliver

	// 3. Hooks (walk soup etc), each its own profiler phase.
	for i, hook := range e.hooks {
		hook.StepRound(e, round)
		prof.Lap(3 + i)
	}

	// 4. Routed delivery (routing.go): last round's overlay walkers advance
	// over this round's post-repair adjacency and are staged where they were
	// sent, or drop; the gather places them in this round's inboxes.
	if e.router != nil {
		e.router.Step()
		e.crew.Do(e.grid.Count(), e.gatherFn)
	}
	prof.Lap(3 + len(e.hooks)) // routed

	// 5. Handlers, in parallel over slot shards. NopHandler is the
	// engine's own hooks-only no-op: it sends nothing and keeps no state,
	// so the per-slot handler sweep and the routing exchange are skipped
	// outright rather than executed vacuously; it reads nothing either, so
	// its round's inboxes are dropped unread.
	if _, nop := h.(NopHandler); !nop {
		e.runHandlers(h)
		prof.Lap(4 + len(e.hooks)) // handlers
		// 6. Route: messages to live ids are staged for next round's
		// gather; the rest drop.
		e.route()
		prof.Lap(5 + len(e.hooks)) // route
	}
	if e.tracer != nil {
		// Merge the round's staged trace events (serial, fixed shard
		// order) and update the lifecycle histograms.
		e.tracer.EndRound(int64(round))
	}
	prof.EndRound(int64(round))

	e.round++
}

// runHandlers runs HandleRound for every slot, the crew claiming fixed
// slot shards. Each shard appends its slots' outgoing messages to its own
// buffer in (slot, seq) order, which is what makes the subsequent exchange
// — and therefore every inbox — canonically ordered with no sorting.
func (e *Engine) runHandlers(h Handler) {
	e.handler = h
	e.crew.Do(e.grid.Count(), e.handleFn)
	e.handler = nil
	var maxBits int64
	for sh := range e.shardOut {
		maxBits = max(maxBits, e.shardOut[sh].maxBits)
	}
	e.em.maxNodeBits.SetMax(maxBits)
}

// handleShard runs HandleRound for shard sh's slots, in slot order.
func (e *Engine) handleShard(sh int) {
	rs := &e.shardOut[sh]
	rs.out.Reset()
	rs.maxBits = 0
	pay := &rs.pay[e.round&1]
	pay.Reset()
	lo, hi := e.grid.Bounds(sh, e.cfg.N)
	a := &e.arenas[sh]
	ctx := rs.ctx
	*ctx = Ctx{E: e, Round: e.round, Shard: sh, out: &rs.out, pay: pay, kinds: &rs.kinds}
	if e.router == nil && e.cfg.Fault == nil {
		ctx.dropped = &rs.dropped // emplace drops dead letters
	}
	for s := lo; s < hi; s++ {
		ctx.Slot, ctx.ID, ctx.Rand, ctx.Inbox = s, e.ids[s], &e.nodeRng[s], a.Run(s-lo)
		ctx.seq, ctx.bits = 0, 0
		e.handler.HandleRound(ctx)
		rs.maxBits = max(rs.maxBits, ctx.bits)
	}
}

// route moves this round's outgoing messages on, by the run's routing
// mode. It first releases the fault-delayed messages due next round into
// the first source (release): each is older than any fresh send, so
// handing them on first keeps every inbox in canonical order. Both modes
// then walk every source in order, and only a released message skips
// faultFate, having had its fate when sent. Under RoutingOracle the
// sharded exchange stages a ref to each for next round's gather; under
// RoutingOverlay the serial loop below hands the router a reference to
// each, which the next round's routed phase walks. Either way the
// messages stay in their buffers until next round's gather has placed
// them.
func (e *Engine) route() {
	e.release()
	if e.router == nil {
		e.crew.Do(e.grid.Count(), e.exchangeFn)
	}
	// Serial merge in fixed source order. Under the overlay it first gives
	// the source's messages to the router in canonical order, after the
	// same faultFate call the exchange's scatter makes. Then tallies and
	// fault-delayed messages: e.delayed stays sorted by the canonical
	// (sentRound, srcSlot, seq) key across rounds because rounds are
	// appended in increasing sentRound order and shards in increasing
	// srcSlot order.
	for src := range e.sources {
		rs := &e.sources[src]
		if e.router != nil {
			for i := range rs.out.Len() {
				m := rs.out.At(i)
				if src > 0 && e.cfg.Fault != nil && e.faultFate(rs, m) {
					continue
				}
				e.sendToRouter(m, msgRef{src: uint32(src), idx: uint32(i)})
			}
		}
		e.em.dropped.Add(0, rs.dropped)
		e.em.faultDropped.Add(0, rs.faultDropped)
		e.em.delayed.Add(0, rs.delayedCnt)
		e.delayed = append(e.delayed, rs.delayed...)
		rs.delayed = rs.delayed[:0]
		rs.dropped, rs.faultDropped, rs.delayedCnt = 0, 0, 0
	}
}

// exchange is shard sh's part of the scatter half of the oracle's sharded
// message exchange: the crew walks sources, decides each fresh message's
// fault fate (a pure hash of its identity), resolves the destination id to
// a slot through the dense table, and stages a ref to the message in the
// source's buffer for the destination shard. Next round's gather, after
// churn, places them. The phase runs over shards, so shard sh's sends
// (source sh+1) fall to the worker that ran its handlers; the released
// source rides with shard 0.
func (e *Engine) exchange(sh int) {
	if sh == 0 {
		e.scatter(0)
	}
	e.scatter(sh + 1)
}

// scatter stages a ref to each of source src's messages for its
// destination shard, walking the send buffer a block at a time. A message
// to a departed id reaches it only under a fault model (emplace).
func (e *Engine) scatter(src int) {
	rs := &e.sources[src]
	n := rs.out.Len()
	for lo := 0; lo < n; lo += shard.BlockLen {
		blk := rs.out.Span(lo, min(lo+shard.BlockLen, n))
		for j := range blk {
			i, m := lo+j, &blk[j]
			if src > 0 && e.cfg.Fault != nil && e.faultFate(rs, m) {
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
	}
}

// gather is destination shard dsh's part of the one inbox placement, of
// both routing modes, and runs after the round's churn: the crew walks
// destination shards and places, by a stable counting sort into the
// shard's arena, what the sources stage there — last round's oracle
// scatter or this round's routed phase — merging sources in their fixed
// order, the released messages and then source shards by index, so each
// inbox receives messages ordered by (send round, sender slot, sequence)
// regardless of worker count. A ref to a
// slot churn replaced this round whose message names another id was bound
// for the departed occupant, and is dropped. The gather consumes the refs
// and rewrites every run, the ones the last handlers read included; each
// shard counts what it places and drops in its own telemetry stripe.
func (e *Engine) gather(dsh int) {
	round := int32(e.round)
	a := &e.arenas[dsh]
	lo, hi := e.grid.Bounds(dsh, e.cfg.N)
	a.Reset(hi - lo)
	var staged, dropped int64
	for i := range e.sources {
		src := &e.sources[i]
		refs := src.xfer[dsh]
		staged += int64(len(refs))
		for j := range refs {
			ref := &refs[j]
			if e.joinRound[ref.slot] == round && src.out.At(int(ref.idx)).To != e.ids[ref.slot] {
				ref.slot = -1 // not placed below
				dropped++
				continue
			}
			a.Count(int(ref.slot) - lo)
		}
	}
	a.Layout()
	for i := range e.sources {
		src := &e.sources[i]
		refs := src.xfer[dsh]
		if len(refs) == 0 {
			continue // unwritten: other workers write the neighbouring shards' headers
		}
		// A copy of the store's header, which the placements below
		// cannot change, keeps its directory out of memory reloads.
		out := src.out
		for _, ref := range refs {
			if ref.slot >= 0 {
				a.Place(int(ref.slot)-lo, out.At(int(ref.idx)))
			}
		}
		src.xfer[dsh] = refs[:0]
	}
	e.em.delivered.Add(dsh, staged-dropped)
	e.em.dropped.Add(dsh, dropped)
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
			// The queue outlives the sender's slab: move the cell to the
			// heap. The slices it holds are never modified (SetPayload).
			cell := *m.payload
			d.m.payload = &cell
		}
		rs.delayed = append(rs.delayed, d)
	default:
		return false
	}
	return true
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
