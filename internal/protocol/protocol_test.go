package protocol

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dynp2p/internal/churn"
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
	tap := &faultTap{}
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: seed, ProtocolSeed: seed + 1,
		Strategy: churn.Uniform, Law: law, Fault: tap,
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
	for i := 0; i < s.h.P.SearchTTL+5 && len(results) == 0; i++ {
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
	deadline := s.e.Round() + s.h.P.SearchTTL + 10
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
	for i := 0; i < s.h.P.SearchTTL+5 && len(results) == 0; i++ {
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
				counts[epoch].counts.put(uint64(m.from), int(m.aux))
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

func TestIDAStorageOverhead(t *testing.T) {
	// IDA pieces should total ~L/K of the item, far below replication.
	s := newSim(t, 256, churn.ZeroLaw{}, 8, 8)
	s.warm()
	data := itemBytes(11, 800)
	s.h.RequestStore(s.e, 0, 11, data)
	s.run(4)
	var total int
	for slot := range s.h.states {
		if cp := s.h.states[slot].stored.get(11); cp != nil {
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
	for i := 0; i < s.h.P.SearchTTL+10 && len(results) == 0; i++ {
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
	s.run(s.h.P.SearchTTL + 2)
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
		e.Run(h, p.SearchTTL+5)
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
	s.run(s.h.P.SearchTTL)
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
	mustPanic("zero wave period", func() Params { p := good; p.WaveEvery = 0; return p }())
	mustPanic("zero landmark ttl", func() Params { p := good; p.LandmarkTTL = 0; return p }())
	mustPanic("zero search ttl", func() Params { p := good; p.SearchTTL = 0; return p }())
	mustPanic("zero sample buffer", func() Params { p := good; p.SampleBuffer = 0; return p }())
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
		for i := 0; i < 2*s.h.P.SearchTTL && len(results) < 2; i++ {
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
// show up in none of those roles, and the departed searcher's retrievals
// must never report.
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
	if st.memberships.get(key) == nil || st.stored.get(key) == nil || !s.h.holdsKey(slot, key, round) ||
		st.searchLM.get(missing) == nil || st.searches.get(missing) == nil || len(st.pending) != 1 || st.recentLen == 0 {
		t.Fatalf("slot %d does not hold every role before the replacement: %+v", slot, st)
	}
	copies, landmarks := s.h.CopyCount(key), s.h.StorageLandmarkCount(key, round)

	s.h.OnJoin(s.e, slot, 1<<40, round) // replace the node as the engine would on churn

	if slices.Contains(s.h.CommitteeSlots(key), slot) {
		t.Error("replaced slot is still a committee member")
	}
	if got := s.h.CopyCount(key); got != copies-1 {
		t.Errorf("copy count %d after the replacement, want %d", got, copies-1)
	}
	if got := s.h.StorageLandmarkCount(key, round); got != landmarks-1 || s.h.holdsKey(slot, key, round) {
		t.Errorf("replaced slot still a storage landmark (%d counted, want %d)", got, landmarks-1)
	}
	if st.searchLM.get(missing) != nil {
		t.Error("replaced slot is still a search landmark")
	}
	if got := st.recentDistinct(nil, 1); len(got) != 0 {
		t.Errorf("newcomer draws on the departed node's walk samples: %v", got)
	}
	s.run(s.h.P.SearchTTL + 5)
	for _, r := range s.h.DrainResults() {
		if r.Key == missing || r.Key == queued {
			t.Errorf("the departed searcher's retrieval reported: %+v", r)
		}
	}
}
