package protocol

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dynp2p/internal/churn"
	"dynp2p/internal/ida"
	"dynp2p/internal/rng"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// sim bundles a full protocol stack for tests.
type sim struct {
	e    *simnet.Engine
	soup *walks.Soup
	h    *Handler
	tap  *faultTap
}

// faultTap is the fault model every test sim is built with. The engine's
// fault model is the run's, so a test that watches or perturbs messages
// installs its model in the tap (sim.setFault) instead; with none
// installed every message is delivered on time.
type faultTap struct{ inner simnet.FaultModel }

func (f *faultTap) Fate(round int, m *simnet.Msg, rnd uint64) (bool, int) {
	if f.inner == nil {
		return false, 0
	}
	return f.inner.Fate(round, m, rnd)
}
func (f *faultTap) String() string { return fmt.Sprint("tap: ", f.inner) }

// setFault makes f decide the fate of every message sent from the next
// round on (nil: delivered on time). Call between rounds.
func (s *sim) setFault(f simnet.FaultModel) { s.tap.inner = f }

func newSim(t testing.TB, n int, law churn.Law, idaK int, seed uint64) *sim {
	t.Helper()
	return newSimWith(t, n, law, seed, func(p *Params) { p.IDAThreshold = idaK })
}

// newSimWith is newSim with the protocol parameters adjusted by set.
func newSimWith(t testing.TB, n int, law churn.Law, seed uint64, set func(*Params)) *sim {
	t.Helper()
	return newSimRouted(t, n, law, seed, simnet.RoutingOracle, set)
}

// newSimRouted is newSimWith in the given routing mode.
func newSimRouted(t testing.TB, n int, law churn.Law, seed uint64, mode simnet.RoutingMode, set func(*Params)) *sim {
	t.Helper()
	tap := &faultTap{}
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: seed, ProtocolSeed: seed + 1,
		Strategy: churn.Uniform, Law: law, Fault: tap,
		Routing: simnet.RoutingConfig{Mode: mode},
	})
	wp := walks.DefaultParams(n)
	soup := walks.NewSoup(e, wp, 0)
	e.AddHook(soup)
	p := DefaultParams(n, wp.WalkLength)
	set(&p)
	h := NewHandler(e, soup, p)
	return &sim{e: e, soup: soup, h: h, tap: tap}
}

func (s *sim) run(rounds int) {
	s.e.Run(s.h, rounds)
}

// warm runs enough rounds for the soup to reach steady state so nodes have
// sample buffers to draw committees from.
func (s *sim) warm() {
	s.run(s.soup.Params().WalkLength + 3)
}

func itemBytes(key uint64, n int) []byte {
	b := make([]byte, n)
	rng.New(key).Fill(b)
	return b
}

func TestStoreCreatesCommitteeAndCopies(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 1)
	s.warm()
	data := itemBytes(42, 200)
	s.h.RequestStore(s.e, 5, 42, data)
	s.run(4)
	// Without churn every invitee materialises, so the committee equals
	// the over-provisioned invitation count.
	invited := s.h.inviteCount()
	copies := s.h.CopyCount(42)
	if copies != invited {
		t.Fatalf("copies = %d, want invite count %d", copies, invited)
	}
	if got := len(s.h.CommitteeSlots(42)); got != invited {
		t.Fatalf("committee slots = %d, want %d", got, invited)
	}
}

func TestLandmarksGrow(t *testing.T) {
	s := newSim(t, 512, churn.ZeroLaw{}, 0, 2)
	s.warm()
	s.h.RequestStore(s.e, 0, 7, itemBytes(7, 64))
	// Committee forms next round; tree needs TreeDepth more rounds.
	s.run(3 + s.h.P.TreeDepth)
	lm := s.h.StorageLandmarkCount(7, s.e.Round())
	if lm < s.h.P.CommitteeSize {
		t.Fatalf("landmarks = %d, want at least committee size %d", lm, s.h.P.CommitteeSize)
	}
	// Lemma 8 upper bound: members (invite count, no churn) * full tree.
	invited := s.h.inviteCount()
	treeMax := 1
	for i := 0; i < s.h.P.TreeDepth; i++ {
		treeMax *= TreeFanout
		treeMax++
	}
	if lm > invited*treeMax {
		t.Fatalf("landmarks = %d exceed tree bound %d", lm, invited*treeMax)
	}
}

func TestRetrieveNoChurn(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 3)
	s.warm()
	data := itemBytes(99, 128)
	s.h.RequestStore(s.e, 3, 99, data)
	s.run(s.h.P.Period)
	s.h.RequestRetrieve(s.e, 200, 99, data)
	var results []SearchResult
	for i := 0; i < s.h.P.SearchTTL()+5 && len(results) == 0; i++ {
		s.run(1)
		results = append(results, s.h.DrainResults()...)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if !r.Success {
		t.Fatalf("retrieval failed: %+v", r)
	}
	if r.Bytes != len(data) {
		t.Fatalf("retrieved %d bytes, want %d", r.Bytes, len(data))
	}
	if r.Found < r.Start || r.Done < r.Found {
		t.Fatalf("inconsistent rounds: %+v", r)
	}
}

func TestRetrieveUnderChurn(t *testing.T) {
	// Moderate churn: committees must maintain themselves and retrieval
	// must still succeed.
	law := churn.RateLaw{C: 0.5, K: 2.0}
	s := newSim(t, 512, law, 0, 4)
	s.warm()
	data := itemBytes(1234, 64)
	s.h.RequestStore(s.e, 10, 1234, data)
	s.run(3 * s.h.P.Period) // survive several epochs first
	if c := s.h.CopyCount(1234); c == 0 {
		t.Fatal("item lost before retrieval test began")
	}
	ok := 0
	attempts := 5
	for a := 0; a < attempts; a++ {
		slot := 50 + a*37
		s.h.RequestRetrieve(s.e, slot, 1234, data)
	}
	deadline := s.e.Round() + s.h.P.SearchTTL() + 10
	var results []SearchResult
	for s.e.Round() < deadline && len(results) < attempts {
		s.run(1)
		results = append(results, s.h.DrainResults()...)
	}
	for _, r := range results {
		if r.Success {
			ok++
		}
	}
	if ok < attempts-1 {
		t.Fatalf("only %d/%d retrievals succeeded under churn", ok, attempts)
	}
}

func TestCommitteeSurvivesEpochs(t *testing.T) {
	law := churn.RateLaw{C: 0.5, K: 2.0}
	s := newSim(t, 512, law, 0, 5)
	s.warm()
	s.h.RequestStore(s.e, 0, 77, itemBytes(77, 32))
	s.run(2)
	for epoch := 0; epoch < 6; epoch++ {
		s.run(s.h.P.Period)
		members := len(s.h.CommitteeSlots(77))
		if members == 0 {
			t.Fatalf("committee died at epoch %d", epoch)
		}
		copies := s.h.CopyCount(77)
		if copies == 0 {
			t.Fatalf("all copies lost at epoch %d", epoch)
		}
		if copies > 3*s.h.P.CommitteeSize {
			t.Fatalf("copy count exploded: %d", copies)
		}
	}
	c := s.h.Counters()
	if c.Handovers == 0 {
		t.Fatal("no handovers happened across 6 epochs")
	}
	if c.Resignations == 0 {
		t.Fatal("no resignations despite handovers")
	}
}

func TestHandoverRefreshesRoster(t *testing.T) {
	// With churn, the committee after several epochs should consist of
	// different slots than the original.
	law := churn.RateLaw{C: 1, K: 2.0}
	s := newSim(t, 512, law, 0, 6)
	s.warm()
	s.h.RequestStore(s.e, 0, 5, itemBytes(5, 16))
	s.run(3)
	first := append([]int(nil), s.h.CommitteeSlots(5)...)
	s.run(5 * s.h.P.Period)
	last := s.h.CommitteeSlots(5)
	if len(last) == 0 {
		t.Fatal("committee died")
	}
	same := 0
	inFirst := make(map[int]bool)
	for _, sl := range first {
		inFirst[sl] = true
	}
	for _, sl := range last {
		if inFirst[sl] {
			same++
		}
	}
	if same == len(last) && len(last) == len(first) {
		t.Fatal("committee membership never changed across 5 epochs")
	}
}

func TestIDAStoreAndRetrieve(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 5, 7)
	if !s.h.IDA() {
		t.Fatal("IDA mode not active")
	}
	s.warm()
	data := itemBytes(88, 333)
	s.h.RequestStore(s.e, 2, 88, data)
	// Run past the first epoch's handover phase to exercise re-coding.
	s.run(s.h.P.Period + SampleWindow + 8)
	if c := s.h.Counters(); c.IDARecoded == 0 {
		t.Fatal("handover never reconstructed and re-dispersed the item")
	}
	s.h.RequestRetrieve(s.e, 100, 88, data)
	var results []SearchResult
	for i := 0; i < s.h.P.SearchTTL()+5 && len(results) == 0; i++ {
		s.run(1)
		results = append(results, s.h.DrainResults()...)
	}
	if len(results) != 1 || !results[0].Success {
		t.Fatalf("IDA retrieval failed: %+v", results)
	}
	if results[0].Bytes != len(data) {
		t.Fatalf("IDA retrieved %d bytes, want %d", results[0].Bytes, len(data))
	}
}

// TestIDAPiecesGoToCandidates: a member's count is a bare header, and in IDA
// mode its piece goes, the round after the counts, only to the members the
// counts rank among the first FallbackCandidates. The primary acts the
// round after that, once the pieces have landed, and every handover
// reconstructs the item. Replication sends no piece and keeps its turns a
// round earlier.
func TestIDAPiecesGoToCandidates(t *testing.T) {
	for _, k := range []int{4, 0} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { idaPiecesLeg(t, k) })
	}
}

func idaPiecesLeg(t *testing.T, k int) {
	const key, size, epochs = 61, 301, 3
	header := (&simnet.Msg{}).Bits()
	type sent struct {
		kind       uint8
		from, to   simnet.NodeID
		aux        uint64
		bits, blob int
	}
	var mu sync.Mutex
	var batch []sent // this round's committee sends
	s := newSim(t, 256, churn.ZeroLaw{}, k, 17)
	s.setFault(watchFault{see: func(m *simnet.Msg) {
		if m.Kind == KindCCount || m.Kind == KindCPiece || m.Kind == KindCHandover {
			mu.Lock()
			batch = append(batch, sent{m.Kind, m.From, m.To, m.Aux, m.Bits(), len(m.Blob())})
			mu.Unlock()
		}
	}})
	s.warm()
	data := itemBytes(key, size)
	s.h.RequestStore(s.e, 3, key, data)
	s.run(2)
	slots := s.h.CommitteeSlots(key)
	if len(slots) == 0 {
		t.Fatal("no committee formed")
	}
	base, period := s.h.states[slots[0]].memberships.get(key).base, s.h.P.Period
	firstTurn := SampleWindow + 1
	if k > 0 {
		firstTurn++
	}

	var sl slab                     // the count tables' arrays
	counts := map[int]*membership{} // epoch -> the counts its members sent
	firstHandover := map[int]int{}  // epoch -> phase of its first KindCHandover
	pieces := 0
	for s.e.Round() < base+(epochs+1)*period {
		batch = batch[:0]
		s.run(1)
		r := s.e.Round() - 1
		epoch, phase := (r-base)/period, (r-base)%period
		for _, m := range batch {
			switch m.kind {
			case KindCCount:
				if m.bits != header {
					t.Errorf("round %d: a count of %d bits, want a bare header of %d", r, m.bits, header)
				}
				if counts[epoch] == nil {
					counts[epoch] = &membership{}
				}
				counts[epoch].counts.put(&sl, uint64(m.from), int(m.aux))
			case KindCPiece:
				pieces++
				want := (size + k - 1) / max(k, 1)
				if phase != SampleWindow+1 || m.blob != want || m.bits != header+16+8*want {
					t.Errorf("round %d (phase %d): a piece of %d bytes, %d bits; want phase %d and %d bytes",
						r, phase, m.blob, m.bits, SampleWindow+1, want)
				}
				if c := counts[epoch]; c == nil || m.to == m.from || c.rankOf(m.to) >= FallbackCandidates {
					t.Errorf("round %d: %d sent its piece to %d, not a leader candidate of epoch %d", r, m.from, m.to, epoch)
				}
			case KindCHandover:
				if _, ok := firstHandover[int(m.aux)]; !ok {
					firstHandover[int(m.aux)] = phase
				}
			}
		}
	}
	for e := 1; e <= epochs; e++ {
		if phase, ok := firstHandover[e]; !ok || phase != firstTurn {
			t.Errorf("epoch %d: first handover at phase %d (sent: %v), want %d", e, phase, ok, firstTurn)
		}
	}
	c := s.h.Counters()
	if k == 0 {
		if pieces != 0 {
			t.Errorf("replication sent %d pieces", pieces)
		}
	} else if pieces == 0 || c.Handovers == 0 || c.IDARecoded != c.Handovers || c.IDALost != 0 {
		t.Errorf("%d pieces sent; %d handovers, %d recoded, %d lost", pieces, c.Handovers, c.IDARecoded, c.IDALost)
	}
	s.h.RequestRetrieve(s.e, 200, key, data)
	if res := await(s, nil, 1); len(res) != 1 || !res[0].Success {
		t.Fatalf("retrieval after %d epochs: %+v", epochs, res)
	}
}

// TestHandoverReusesDispersal: every handover hands its new roster the
// pieces the item was dispersed into when it was stored. Each invite, at
// the store and at every epoch's handover, carries its piece of a fresh
// Encode of the item byte for byte, and carries it in the array the
// store's recorded dispersal holds: no handover encodes.
func TestHandoverReusesDispersal(t *testing.T) {
	const key, size, epochs = 29, 301, 4
	type invite struct {
		piece int
		blob  []byte
	}
	var mu sync.Mutex
	var invites []invite
	s := newSim(t, 256, churn.ZeroLaw{}, 4, 23)
	s.setFault(watchFault{see: func(m *simnet.Msg) {
		if m.Kind == KindCInvite && m.Item == key {
			_, piece := unpackInvite(m.Aux)
			mu.Lock()
			invites = append(invites, invite{piece, m.Blob()})
			mu.Unlock()
		}
	}})
	s.warm()
	data := itemBytes(key, size)
	s.h.RequestStore(s.e, 3, key, data)
	s.run(2)
	stored, ok := s.h.dispersals[key]
	created := len(invites)
	if !ok || created == 0 {
		t.Fatalf("the store sent %d invites and recorded a dispersal: %v", created, ok)
	}
	s.run((epochs + 1) * s.h.P.Period)

	fresh := s.h.code.Encode(data)
	for i, inv := range invites {
		if inv.piece < 0 || inv.piece >= len(fresh) || !bytes.Equal(inv.blob, fresh[inv.piece].Data) {
			t.Fatalf("invite %d: piece %d differs from a fresh Encode's", i, inv.piece)
		}
		if unsafe.SliceData(inv.blob) != unsafe.SliceData(stored.pieces[inv.piece].Data) {
			t.Errorf("invite %d (%d sent at the store): piece %d is a fresh dispersal's", i, created, inv.piece)
		}
	}
	if d := s.h.dispersals[key]; unsafe.SliceData(d.pieces) != unsafe.SliceData(stored.pieces) {
		t.Error("a handover recorded a new dispersal")
	}
	c := s.h.Counters()
	if len(invites) <= created || c.Handovers < epochs || c.IDARecoded != c.Handovers || c.IDALost != 0 {
		t.Errorf("%d handover invites; %d handovers, %d recoded, %d lost over %d epochs",
			len(invites)-created, c.Handovers, c.IDARecoded, c.IDALost, epochs)
	}
	// Other bytes under the key are dispersed afresh, from a copy of a
	// scratch item, and the item's own bytes again after them.
	other := itemBytes(key+1, size)
	scratch := bytes.Clone(other)
	got := s.h.disperse(key, scratch, true)
	clear(scratch)
	if want := s.h.code.Encode(other); !slices.EqualFunc(got, want, func(a, b ida.Piece) bool {
		return a.Index == b.Index && bytes.Equal(a.Data, b.Data)
	}) || !bytes.Equal(s.h.dispersals[key].item, other) {
		t.Error("other bytes under the key were not dispersed afresh")
	}
	if got := s.h.disperse(key, data, false); !bytes.Equal(got[5].Data, fresh[5].Data) {
		t.Error("the item's bytes after other bytes got the other bytes' pieces")
	}
}

func TestIDAStorageOverhead(t *testing.T) {
	// IDA pieces should total ~L/K of the item, far below replication.
	s := newSim(t, 256, churn.ZeroLaw{}, 8, 8)
	s.warm()
	data := itemBytes(11, 800)
	s.h.RequestStore(s.e, 0, 11, data)
	s.run(4)
	var total int
	for slot := range s.h.states {
		if cp := s.h.states[slot].memberships.get(11); cp != nil {
			total += len(cp.data)
		}
	}
	invited := s.h.inviteCount()
	replicated := invited * len(data)
	if total >= replicated/2 {
		t.Fatalf("IDA stored %d bytes; replication would be %d — expected large saving", total, replicated)
	}
	// Each member holds exactly one ceil(L/K) piece; the roster may be
	// smaller than the invite count (the leader's sample window can hold
	// fewer distinct sources) but must allow reconstruction (≥ K pieces).
	pieceSize := (len(data) + 7) / 8
	if total%pieceSize != 0 {
		t.Fatalf("IDA stored %d bytes, not a multiple of the %d-byte piece size", total, pieceSize)
	}
	if pieces := total / pieceSize; pieces < 8 || pieces > invited {
		t.Fatalf("IDA stored %d pieces, want between K=8 and invited=%d", pieces, invited)
	}
}

func TestSearchForMissingItemFails(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 9)
	s.warm()
	s.h.RequestRetrieve(s.e, 8, 31337, nil)
	var results []SearchResult
	for i := 0; i < s.h.P.SearchTTL()+10 && len(results) == 0; i++ {
		s.run(1)
		results = append(results, s.h.DrainResults()...)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1 expiry failure", len(results))
	}
	if results[0].Success || results[0].Found >= 0 {
		t.Fatalf("search for missing item should fail cleanly: %+v", results[0])
	}
}

func TestSearchCommitteeDissolves(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 10)
	s.warm()
	s.h.RequestRetrieve(s.e, 8, 555, nil)
	searcher := s.e.IDAt(8)
	s.run(2)
	if s.h.states[8].searches.get(555) == nil {
		t.Fatal("search state missing")
	}
	s.run(2)
	if s.h.SearchLandmarkCount(555, searcher, s.e.Round()) <= s.h.inviteCount() {
		t.Fatal("search committee never formed")
	}
	s.run(s.h.P.SearchTTL() + 2)
	if got := s.h.SearchLandmarkCount(555, searcher, s.e.Round()); got != 0 {
		t.Fatalf("search committee did not dissolve after TTL: %d landmarks left", got)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]SearchResult, Counters) {
		e := simnet.New(simnet.Config{
			N: 128, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
			AdversarySeed: 11, ProtocolSeed: 12,
			Strategy: churn.Uniform, Law: churn.FixedLaw{Count: 2},
			Workers: workers,
		})
		wp := walks.DefaultParams(128)
		soup := walks.NewSoup(e, wp, workers)
		e.AddHook(soup)
		p := DefaultParams(128, wp.WalkLength)
		h := NewHandler(e, soup, p)
		e.Run(h, wp.WalkLength+3)
		h.RequestStore(e, 0, 9, itemBytes(9, 50))
		e.Run(h, p.Period)
		h.RequestRetrieve(e, 64, 9, itemBytes(9, 50))
		e.Run(h, p.SearchTTL()+5)
		return h.DrainResults(), h.Counters()
	}
	r1, c1 := run(1)
	r2, c2 := run(5)
	if len(r1) != len(r2) {
		t.Fatalf("result counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("results differ at %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if c1 != c2 {
		t.Fatalf("counters differ:\n%+v\n%+v", c1, c2)
	}
}

func TestPendingWaitsForSamples(t *testing.T) {
	// A store requested before the soup has warmed up (no samples seen
	// yet) must wait, then execute once samples flow.
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 13)
	s.run(1) // initial joins; protocol state now exists
	s.h.RequestStore(s.e, 4, 21, itemBytes(21, 16))
	s.run(3)
	if s.h.CopyCount(21) != 0 {
		t.Fatal("store executed before any samples existed")
	}
	s.run(s.soup.Params().WalkLength + 12)
	if s.h.CopyCount(21) == 0 {
		t.Fatal("pending store never executed")
	}
}

func TestPerNodeTrafficPolylog(t *testing.T) {
	// The scalability claim: per-node per-round traffic stays polylog even
	// with an item stored and a search running.
	s := newSim(t, 512, churn.RateLaw{C: 0.5, K: 2}, 0, 14)
	s.warm()
	s.h.RequestStore(s.e, 0, 1, itemBytes(1, 32))
	s.run(s.h.P.Period)
	s.h.RequestRetrieve(s.e, 101, 1, nil)
	s.run(s.h.P.SearchTTL())
	maxBits := s.e.Metrics().MaxNodeBitsRound
	// The busiest node is the epoch leader, which in one round sends
	// CommitteeSize invites (roster + item blob each), CommitteeSize
	// handovers (roster each), and its own waves/counts. That is
	// Θ(log²n) words + Θ(|I|·log n) bits — polylog for fixed |I|.
	size := int64(s.h.P.CommitteeSize)
	itemBits := int64(8 * 32)
	perInvite := 328 + 16 + 64*size + 16 + itemBits
	perHandover := 328 + 16 + 64*size
	leaderPeak := size*(perInvite+perHandover) + size*400
	if maxBits > 2*leaderPeak {
		t.Fatalf("max per-node bits %d exceeds 2x leader peak %d", maxBits, 2*leaderPeak)
	}
	// And it must be far below the flooding alternative of Θ(n·|I|) bits.
	floodBits := int64(s.e.N()) * itemBits
	if maxBits > floodBits {
		t.Fatalf("per-node traffic %d is not below flooding scale %d", maxBits, floodBits)
	}
}

func TestParamsValidate(t *testing.T) {
	mustPanic := func(name string, p Params) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		p.validate()
	}
	good := DefaultParams(1000, 14)
	mustPanic("zero committee", func() Params { p := good; p.CommitteeSize = 0; return p }())
	mustPanic("short period", func() Params { p := good; p.Period = 1; return p }())
	// SampleWindow+2 leaves an IDA primary no turn: it acts at that phase,
	// once the pieces have landed. Replication acts a round earlier.
	short := good
	short.Period = SampleWindow + 2
	short.validate()
	mustPanic("short IDA period", func() Params { p := short; p.IDAThreshold = 1; return p }())
	mustPanic("bad ida", func() Params { p := good; p.IDAThreshold = p.CommitteeSize + 1; return p }())
	mustPanic("zero wave period", func() Params { p := good; p.Tau = 0; return p }())
	mustPanic("tree depth past packGrow's 8 bits", func() Params { p := good; p.TreeDepth = 256; return p }())
	good.validate() // must not panic
}

func TestTreeDepthHelpers(t *testing.T) {
	d := DefaultTreeDepth(1024, 17)
	if d < 1 || d > 10 {
		t.Fatalf("DefaultTreeDepth(1024,17) = %d, implausible", d)
	}
	// Bigger networks need deeper trees.
	if DefaultTreeDepth(1<<20, 35) <= DefaultTreeDepth(1<<10, 17) {
		t.Fatal("tree depth should grow with n")
	}
}

// FuzzPackedFields: the two Aux packings return every in-range tuple as it
// went in, and a value too wide for its field comes back cut to the field's
// width with its neighbours untouched.
func FuzzPackedFields(f *testing.F) {
	f.Add(123456, 77, 5, 100000)
	f.Add(-1, 1<<16, 256, -1)
	f.Fuzz(func(t *testing.T, base, piece, depth, wave int) {
		if b, p := unpackInvite(packInvite(base, piece)); b != int(uint32(base)) || p != int(uint16(piece)) {
			t.Errorf("invite (%d, %d) came back (%d, %d)", base, piece, b, p)
		}
		if d, w := unpackGrow(packGrow(depth, wave)); d != int(uint8(depth)) || w != int(uint32(wave)) {
			t.Errorf("grow (%d, %d) came back (%d, %d)", depth, wave, d, w)
		}
	})
}

// TestDrainResultsCanonicalOrder pins that DrainResults hides the order
// in which parallel handler shards recorded a round's outcomes.
func TestDrainResultsCanonicalOrder(t *testing.T) {
	want := []SearchResult{
		{Searcher: 9, Key: 1, Start: 3, Done: -1},
		{Searcher: 4, Key: 2, Start: 1, Done: 7, Success: true},
		{Searcher: 4, Key: 5, Start: 1, Done: 7, Success: true},
		{Searcher: 6, Key: 2, Start: 2, Done: 7, Success: true},
		{Searcher: 1, Key: 2, Start: 4, Done: 8, Success: true},
	}
	h := &Handler{}
	for _, i := range []int{3, 4, 1, 0, 2} {
		h.recordResult(want[i])
	}
	if got := h.DrainResults(); !slices.Equal(got, want) {
		t.Fatalf("drained %+v, want %+v", got, want)
	}
	if rest := h.DrainResults(); len(rest) != 0 {
		t.Fatalf("second drain returned %+v", rest)
	}
}

// TestSecondRetrieveReportsItsOwnResult: a node asked for a key it is
// already searching must answer both requests — the later one waits for
// the running search, then runs as its own operation with its own Start.
// (The second request used to overwrite the first's state: two requests,
// one result.)
func TestSecondRetrieveReportsItsOwnResult(t *testing.T) {
	for _, gap := range []int{0, 1} { // rounds between the two requests
		s := newSim(t, 256, churn.ZeroLaw{}, 0, 3)
		s.warm()
		data := itemBytes(99, 128)
		s.h.RequestStore(s.e, 3, 99, data)
		s.run(s.h.P.Period)
		starts := []int{s.e.Round(), s.e.Round() + gap}
		s.h.RequestRetrieve(s.e, 200, 99, data)
		s.run(gap)
		s.h.RequestRetrieve(s.e, 200, 99, data)
		var results []SearchResult
		for i := 0; i < 2*s.h.P.SearchTTL() && len(results) < 2; i++ {
			s.run(1)
			results = append(results, s.h.DrainResults()...)
		}
		if len(results) != 2 {
			t.Fatalf("gap %d: two requests returned %d results: %+v", gap, len(results), results)
		}
		for i, r := range results {
			if !r.Success || r.Start != starts[i] {
				t.Fatalf("gap %d: result %d = %+v, want a success with Start %d", gap, i, r, starts[i])
			}
		}
	}
}

// TestReplacedSlotKnowsNothing extends the cache's churn invariant to the
// rest of nodeState, which OnJoin empties in place: a slot replaced while
// it was a committee member, a copy holder, a storage landmark, a search
// landmark and a searcher — with a further request still pending — must
// show up in none of those roles, and neither the departed searcher's
// retrievals nor any of the newcomer's may report.
func TestReplacedSlotKnowsNothing(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 5)
	s.warm()
	const key, missing, queued = 42, 777, 778
	s.h.RequestStore(s.e, 0, key, itemBytes(key, 64))
	s.run(s.h.P.Period)
	slot := s.h.CommitteeSlots(key)[0]
	s.h.RequestRetrieve(s.e, slot, missing, nil)
	s.run(2)
	s.h.RequestRetrieve(s.e, slot, queued, nil)
	round := s.e.Round()
	st := &s.h.states[slot]
	if m := st.memberships.get(key); m == nil || m.data == nil || !slices.Contains(s.h.heldKeys(slot, round, nil), key) ||
		st.searchLM.get(missing) == nil || st.searches.get(missing) == nil || len(st.pending) != 1 || st.recentLen == 0 {
		t.Fatalf("slot %d does not hold every role before the replacement: %+v", slot, st)
	}
	copies, landmarks := s.h.CopyCount(key), s.h.StorageLandmarkCount(key, round)

	const newcomer = 1 << 40
	s.h.OnJoin(s.e, slot, newcomer, round) // replace the node as the engine would on churn

	if slices.Contains(s.h.CommitteeSlots(key), slot) {
		t.Error("replaced slot is still a committee member")
	}
	if got := s.h.CopyCount(key); got != copies-1 {
		t.Errorf("copy count %d after the replacement, want %d", got, copies-1)
	}
	if got := s.h.StorageLandmarkCount(key, round); got != landmarks-1 || slices.Contains(s.h.heldKeys(slot, round, nil), key) {
		t.Errorf("replaced slot still a storage landmark (%d counted, want %d)", got, landmarks-1)
	}
	if st.searchLM.get(missing) != nil {
		t.Error("replaced slot is still a search landmark")
	}
	if got := st.recentDistinct(nil, 1); len(got) != 0 {
		t.Errorf("newcomer draws on the departed node's walk samples: %v", got)
	}
	s.run(s.h.P.SearchTTL() + 5)
	for _, r := range s.h.DrainResults() {
		if r.Key == missing || r.Key == queued || r.Searcher == newcomer {
			t.Errorf("the departed searcher's retrieval reported: %+v", r)
		}
	}
}

// pieceFeed is the protocol handler with a scripted member: in round
// sendAt the node at slot from sends the searcher at slot to one KindSData
// message per entry of order, carrying that IDA piece of the item, and in
// the next round the searcher files them one at a time while the probe
// notes after which message its search ended. Only the test writes sendAt,
// between rounds, and only the searcher's slot writes endedAt.
type pieceFeed struct {
	*Handler
	from, to int
	key      uint64
	pieces   []ida.Piece
	order    []int
	itemLen  int
	sendAt   int // -1: never
	endedAt  int // how many pieces the searcher had filed when its search ended (0 = running)
}

func (p *pieceFeed) HandleRound(ctx *simnet.Ctx) {
	switch {
	case ctx.Slot == p.from && ctx.Round == p.sendAt:
		for _, idx := range p.order {
			m := ctx.SendMsg(ctx.E.IDAt(p.to), KindSData)
			m.Item, m.Aux, m.Aux2 = p.key, uint64(idx), uint64(p.itemLen)
			ctx.SetPayload(m, nil, p.pieces[idx].Data)
		}
	case ctx.Slot == p.to && ctx.Round == p.sendAt+1:
		st := &p.states[ctx.Slot]
		filed := 0
		for i := range ctx.Inbox {
			m := &ctx.Inbox[i]
			if m.Kind != KindSData || m.From != ctx.E.IDAt(p.from) {
				continue
			}
			filed++
			p.onData(ctx, st, m)
			if p.endedAt == 0 && st.searches.get(p.key) == nil {
				p.endedAt = filed
			}
		}
	}
	p.Handler.HandleRound(ctx)
}

// TestSearcherPieceSet: a searcher files the IDA pieces its fetches bring
// as a committee's leader candidate does, one per index, in any arrival
// order. Fed pieces 2, 0, 2, 1 at K = 3, it decodes at the fourth message —
// the repeat does not count — and finishes with the item's bytes.
func TestSearcherPieceSet(t *testing.T) {
	const n, k = 256, 3
	s := newSim(t, n, churn.ZeroLaw{}, k, 21)
	key := uint64(77)
	item := itemBytes(key, 100)
	p := &pieceFeed{
		Handler: s.h, from: 9, to: 40, key: key,
		pieces: s.h.code.Encode(item), order: []int{2, 0, 2, 1}, itemLen: len(item),
		sendAt: -1,
	}
	s.e.Run(p, s.soup.Params().WalkLength+3)
	// Nothing stores key, so the search runs until the pieces end it.
	p.RequestRetrieve(s.e, p.to, key, item)
	for r := 0; p.states[p.to].searches.get(key) == nil; r++ {
		if r > s.h.P.SearchTTL() {
			t.Fatal("the searcher never formed its search")
		}
		s.e.Run(p, 1)
	}
	p.sendAt = s.e.Round()
	s.e.Run(p, 2)
	if p.endedAt != len(p.order) {
		t.Fatalf("the search ended after piece %d of %v, want %d", p.endedAt, p.order, len(p.order))
	}
	rs := p.DrainResults()
	if len(rs) != 1 || !rs[0].Success || rs[0].Bytes != len(item) || rs[0].Done != p.sendAt+1 {
		t.Fatalf("results %+v, want one success of %d bytes in round %d", rs, len(item), p.sendAt+1)
	}
}

// TestCommitteeCensus: CommitteeSlots, CommitteeCount and CopyCount read
// the shards' committee census, and must read what a scan of every slot
// finds (committeeScan) after every round of a run in which memberships
// come and go every way they can — invites, resigns on a handover, churn
// replacing a member — with IDA pieces held, and a tenth of all messages
// lost, so a member a handover notice misses stays on beside the new
// committee and committees fork. Both routing modes.
func TestCommitteeCensus(t *testing.T) {
	for _, mode := range []simnet.RoutingMode{simnet.RoutingOracle, simnet.RoutingOverlay} {
		t.Run(mode.String(), func(t *testing.T) {
			const n, keys = 256, 6
			s := newSimRouted(t, n, churn.RateLaw{C: 0.5, K: 2.0}, 43, mode, func(p *Params) { p.IDAThreshold = 4 })
			s.warm()
			s.setFault(simnet.DropDelayFaults{DropProb: 0.1})
			checked := []uint64{999} // and every stored key
			for i := range keys {
				key := uint64(300 + i)
				s.h.RequestStore(s.e, 5+41*i, key, itemBytes(key, 120))
				checked = append(checked, key)
			}
			// members holds each key's member slots and their ids after the
			// last round: a slot whose id has changed since lost its
			// membership to churn (OnJoin).
			members := map[uint64]map[int]simnet.NodeID{}
			churned, forked := 0, 0
			for r := 0; r < 4*s.h.P.Period; r++ {
				if r%4 == 0 {
					key := uint64(300 + r/4%keys)
					s.h.RequestRetrieve(s.e, (17+29*r)%n, key, itemBytes(key, 120))
				}
				s.run(1)
				s.h.DrainResults()
				for _, key := range checked {
					slots, copies := s.h.committeeScan(key)
					if got := s.h.CommitteeSlots(key); !slices.Equal(got, slots) {
						t.Fatalf("round %d, key %d: CommitteeSlots = %v, a scan finds %v", s.e.Round(), key, got, slots)
					}
					if got := s.h.CommitteeCount(key); got != len(slots) {
						t.Fatalf("round %d, key %d: CommitteeCount = %d, a scan finds %d", s.e.Round(), key, got, len(slots))
					}
					if got := s.h.CopyCount(key); got != copies {
						t.Fatalf("round %d, key %d: CopyCount = %d, a scan finds %d", s.e.Round(), key, got, copies)
					}
					if len(slots) > s.h.P.CommitteeSize {
						forked++
					}
					for slot, id := range members[key] {
						if s.h.states[slot].id != id {
							churned++
						}
					}
					now := map[int]simnet.NodeID{}
					for _, slot := range slots {
						now[slot] = s.h.states[slot].id
					}
					members[key] = now
				}
				for sh := range s.h.census {
					if i := slices.IndexFunc(s.h.census[sh].vals, func(c int) bool { return c <= 0 }); i >= 0 {
						t.Fatalf("round %d: shard %d's census holds key %d at %d", s.e.Round(), sh, s.h.census[sh].keys[i], s.h.census[sh].vals[i])
					}
				}
			}
			resigned := s.h.Counters().Resignations
			if resigned == 0 || churned == 0 || forked == 0 {
				t.Fatalf("%d resigns, %d members churned, %d key-rounds with a forked committee: every path must run", resigned, churned, forked)
			}
			t.Logf("%d resigns, %d members churned, %d key-rounds with a forked committee", resigned, churned, forked)
		})
	}
}
