package protocol

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

// storedSim is a warmed n-node sim with one item stored and a committee
// period behind it, so retrievals of key succeed.
func storedSim(t *testing.T, n int, law churn.Law, seed uint64) (*sim, uint64, []byte) {
	t.Helper()
	s := newSim(t, n, law, 0, seed)
	s.warm()
	key := uint64(99)
	data := itemBytes(key, 128)
	s.h.RequestStore(s.e, 3, key, data)
	s.run(s.h.P.Period)
	return s, key, data
}

// await runs rounds until want results have been drained (SearchTTL rounds
// at most) and returns them appended to got.
func await(s *sim, got []SearchResult, want int) []SearchResult {
	for i := 0; i < s.h.P.SearchTTL() && len(got) < want; i++ {
		s.run(1)
		got = append(got, s.h.DrainResults()...)
	}
	return got
}

// searchMembers counts the nodes of roster — a search committee, as
// captured from searchState.invited — that hold a task of searcher's search
// for key from a wave rooted after round since.
func searchMembers(s *sim, key uint64, searcher simnet.NodeID, roster []simnet.NodeID, since int) (n int) {
	for _, id := range roster {
		if slot, ok := s.e.SlotOf(id); ok {
			if t := findSearchTask(&s.h.states[slot], key, searcher); t != nil && t.wave > since {
				n++
			}
		}
	}
	return n
}

// TestSearchDoneEndsTail: once the searcher has its result, the notice
// reaches the committee in one round and the leaves of every landmark tree
// in TreeDepth more; after that nobody is a landmark of the search and no
// inquiry is sent.
func TestSearchDoneEndsTail(t *testing.T) {
	s, key, data := storedSim(t, 256, churn.ZeroLaw{}, 3)
	const slot = 200
	searcher := s.e.IDAt(slot)
	s.h.RequestRetrieve(s.e, slot, key, data)
	s.run(1)
	if s.h.states[slot].searches.get(key) == nil {
		t.Fatal("search state missing")
	}
	peak := 0
	var results []SearchResult
	for i := 0; i < s.h.P.SearchTTL() && len(results) == 0; i++ {
		s.run(1)
		peak = max(peak, s.h.SearchLandmarkCount(key, searcher, s.e.Round()))
		results = s.h.DrainResults()
	}
	if len(results) != 1 || !results[0].Success {
		t.Fatalf("retrieval did not succeed: %+v", results)
	}
	if peak <= s.h.inviteCount() {
		t.Fatalf("at most %d search landmarks before the result: no tree grew, the test shows nothing", peak)
	}
	s.run(s.h.P.TreeDepth + 1)
	if got := s.h.SearchLandmarkCount(key, searcher, s.e.Round()); got != 0 {
		t.Errorf("%d search landmarks (of %d) left %d rounds after the result", got, peak, s.h.P.TreeDepth+1)
	}
	c := s.h.Counters()
	if c.Dones < int64(s.h.inviteCount()) {
		t.Errorf("%d notices sent, want at least the %d to the committee", c.Dones, s.h.inviteCount())
	}
	s.run(s.h.P.LandmarkTTL())
	if got := s.h.Counters().Inquiries; got != c.Inquiries {
		t.Errorf("inquiries kept growing after the search ended: %d -> %d", c.Inquiries, got)
	}
}

// doneFault loses (delay < 0) or delays every search-ended notice, and
// touches nothing else.
type doneFault struct{ delay int }

func (f doneFault) Fate(_ int, m *simnet.Msg, _ uint64) (bool, int) {
	if m.Kind != KindSDone {
		return false, 0
	}
	return f.delay < 0, max(f.delay, 0)
}
func (f doneFault) String() string { return fmt.Sprintf("KindSDone delayed %d", f.delay) }

// watchFault shows every sent message to see — concurrently, as Fate is
// called — and leaves its fate to inner (nil: delivered on time).
type watchFault struct {
	inner simnet.FaultModel
	see   func(*simnet.Msg)
}

func (f watchFault) Fate(round int, m *simnet.Msg, rnd uint64) (bool, int) {
	f.see(m)
	if f.inner == nil {
		return false, 0
	}
	return f.inner.Fate(round, m, rnd)
}
func (f watchFault) String() string { return fmt.Sprint("watched: ", f.inner) }

// TestSearchSendsHeadersOnly: nothing the search side sends but a storage
// roster (KindSFound) and the bytes (KindSData, KindCacheData) has a
// payload — a search committee is told the key and the searcher, never its
// own roster.
func TestSearchSendsHeadersOnly(t *testing.T) {
	header := (&simnet.Msg{}).Bits()
	var sent, fat [256]atomic.Int64
	s := newSim(t, 512, churn.PaperLaw(0.5, 0.5), 0, 21)
	s.setFault(watchFault{see: func(m *simnet.Msg) {
		sent[m.Kind].Add(1)
		if m.Bits() != header {
			fat[m.Kind].Add(1)
		}
	}})
	s.warm()
	s.h.RequestStore(s.e, 7, 11, itemBytes(11, 64))
	s.run(s.h.P.Period)
	for i := 0; i < 8; i++ {
		s.h.RequestRetrieve(s.e, 20+10*i, 11, itemBytes(11, 64))
	}
	s.run(s.h.P.Tau + s.h.P.TreeDepth + 2) // past the second wave
	for _, kind := range []uint8{KindSGrow, KindSInquire, KindSFetch, KindSDone} {
		if n, f := sent[kind].Load(), fat[kind].Load(); n == 0 || f != 0 {
			t.Errorf("kind %#x: %d sent, %d of them with a payload", kind, n, f)
		}
	}
	if fat[KindCInvite].Load() == 0 || fat[KindLGrow].Load() == 0 {
		t.Error("no storage invite or grow carried a roster: the observer sees no payloads")
	}
}

// TestSearchFoundOncePerRound is the oracle leg of the root package's
// TestRoutedFoundOncePerRound. Retrievals run two at a time, so a search
// landmark holding tasks of both searches asks for both in one inquiry. A
// storage landmark tells every searcher an inquiry names its roster exactly
// once a round: never twice, though the searches' landmarks inquire some of
// them more than once, and never not at all — the second searcher an
// inquiry names is answered like the first.
func TestSearchFoundOncePerRound(t *testing.T) {
	const retrievals, key = 6, 11
	founds := &foundTally{n: map[foundTold]int{}, asked: map[askedOf]bool{}}
	s := newSim(t, 512, churn.ZeroLaw{}, 0, 21)
	s.setFault(founds)
	s.warm()
	s.h.RequestStore(s.e, 7, key, itemBytes(key, 64))
	s.run(s.h.P.Period)
	// registered holds (landmark, round) when the landmark's registration is
	// live at the start of the round: every inquiry it reads then finds it.
	registered := map[askedOf]bool{}
	step := func() {
		r := s.e.Round()
		for i := range s.h.states {
			if ent := s.h.states[i].storageLM.get(key); ent != nil && r < ent.expiry {
				registered[askedOf{landmark: s.h.states[i].id, round: r}] = true
			}
		}
		s.run(1)
	}
	var results []SearchResult
	for i := 0; i < retrievals; i += 2 {
		s.h.RequestRetrieve(s.e, 20+40*i, key, itemBytes(key, 64))
		s.h.RequestRetrieve(s.e, 60+40*i, key, itemBytes(key, 64))
		for r := 0; r < s.h.P.SearchTTL() && len(results) < i+2; r++ {
			step()
			results = append(results, s.h.DrainResults()...)
		}
		for r := 0; r < s.h.P.TreeDepth+2; r++ { // the finished searches' tails end
			step()
		}
	}
	if len(results) != retrievals || slices.ContainsFunc(results, func(r SearchResult) bool { return !r.Success }) {
		t.Fatalf("retrievals did not all succeed: %+v", results)
	}
	told := map[askedOf]bool{}
	for k, n := range founds.n {
		if n > 1 {
			t.Errorf("landmark %d told searcher %d roster %s for key %d %d times in round %d", k.from, k.to, k.roster, k.key, n, k.round)
		}
		told[askedOf{k.from, k.to, k.round}] = true
	}
	reached := 0
	for q := range founds.asked { // sent in q.round, read in the next
		read := askedOf{q.landmark, q.searcher, q.round + 1}
		if !registered[askedOf{landmark: q.landmark, round: read.round}] {
			continue
		}
		reached++
		if !told[read] {
			t.Errorf("landmark %d was asked for searcher %d in round %d and did not tell it", q.landmark, q.searcher, read.round)
		}
	}
	if c := s.h.Counters(); c.Founds == 0 || c.FoundRepeats == 0 || c.InquiryPairs == 0 || reached == 0 {
		t.Fatalf("%d founds, %d repeats left unanswered, %d paired inquiries, %d searchers asked of a registered landmark: the test shows nothing",
			c.Founds, c.FoundRepeats, c.InquiryPairs, reached)
	}
}

// foundTally counts every KindSFound sent by (sender, searcher, key,
// round, roster), records every searcher an inquiry names by (sample,
// searcher, round sent), and delivers everything on time.
type foundTally struct {
	mu    sync.Mutex
	n     map[foundTold]int
	asked map[askedOf]bool
}

// askedOf is a landmark asked for, or telling, a searcher in a round.
type askedOf struct {
	landmark, searcher simnet.NodeID
	round              int
}

type foundTold struct {
	from, to simnet.NodeID
	key      uint64
	round    int
	roster   string
}

func (f *foundTally) Fate(round int, m *simnet.Msg, _ uint64) (bool, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch m.Kind {
	case KindSFound:
		f.n[foundTold{m.From, m.To, m.Item, round, fmt.Sprint(m.IDs())}]++
	case KindSInquire:
		for _, searcher := range []uint64{m.Aux2, m.Aux} {
			if searcher != 0 {
				f.asked[askedOf{m.To, simnet.NodeID(searcher), round}] = true
			}
		}
	}
	return false, 0
}
func (f *foundTally) String() string { return "KindSFound tally" }

// TestInquiryNamesEachLiveSearcherOnce: a search landmark asks each of its
// walk samples once for every two searchers of a key it holds a live task
// for — a bare header naming the first in Aux2 and the second, or 0, in
// Aux — and never for a searcher whose task has expired but is not yet
// swept. The key is stored nowhere, so every search sends a wave every
// Tau rounds until its deadline; a later wave refreshes a task in
// place, so a landmark's table holds expired tasks after live ones too.
func TestInquiryNamesEachLiveSearcherOnce(t *testing.T) {
	const key = 31337
	type asked struct {
		from, to simnet.NodeID
	}
	header := (&simnet.Msg{}).Bits()
	var mu sync.Mutex
	named := map[asked][]simnet.NodeID{} // this round's inquiries: the searchers they name
	msgs := map[asked]int{}
	s := newSim(t, 512, churn.ZeroLaw{}, 0, 21)
	s.setFault(watchFault{see: func(m *simnet.Msg) {
		if m.Kind != KindSInquire {
			return
		}
		if m.Bits() != header || m.Aux == m.Aux2 || m.Item != key {
			t.Errorf("inquiry of %d bits for key %d names %d and %d", m.Bits(), m.Item, m.Aux2, m.Aux)
		}
		k := asked{m.From, m.To}
		mu.Lock()
		defer mu.Unlock()
		msgs[k]++
		named[k] = append(named[k], simnet.NodeID(m.Aux2))
		if m.Aux != 0 {
			named[k] = append(named[k], simnet.NodeID(m.Aux))
		}
	}})
	s.warm()
	issued, reported, expiredBehindLive := 0, 0, 0
	for r := 0; r < s.h.P.SearchTTL()+s.h.P.LandmarkTTL(); r++ {
		if r%(s.h.P.Tau/2) == 0 && r < s.h.P.LandmarkTTL() {
			for i := 0; i < 3; i++ { // three at once, each searcher distinct
				s.h.RequestRetrieve(s.e, 20+50*i+r, key, nil)
				issued++
			}
		}
		s.run(1)
		round := s.e.Round() - 1
		// A search that expired this round dropped its searcher's own task
		// after the inquiries went out: leave those nodes out.
		ended := map[simnet.NodeID]bool{}
		for _, res := range s.h.DrainResults() {
			ended[res.Searcher] = true
			reported++
		}
		for slot := range s.h.states {
			st := &s.h.states[slot]
			lo, hi := st.searchLM.span(key)
			if lo == hi || ended[st.id] {
				continue
			}
			var live []simnet.NodeID
			for i, task := range st.searchLM.vals[lo:hi] {
				if round < task.expiry {
					live = append(live, task.searcher)
				} else if len(live) > 0 && i > 0 {
					expiredBehindLive++
				}
			}
			occurs := map[simnet.NodeID]int{}
			for _, smp := range s.soup.Samples(slot) {
				if smp.Src != st.id {
					occurs[smp.Src]++
				}
			}
			for to, n := range occurs {
				k := asked{st.id, to}
				var want []simnet.NodeID
				for _, id := range live {
					for i := 0; i < n; i++ {
						want = append(want, id)
					}
				}
				got := named[k]
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) || msgs[k] != n*((len(live)+1)/2) {
					t.Errorf("round %d: landmark %d sent %d inquiries naming %v to a sample it holds %d times; live searchers %v",
						round, st.id, msgs[k], got, n, live)
				}
				delete(named, k)
				delete(msgs, k)
			}
		}
		for k, ids := range named {
			if !ended[k.from] {
				t.Errorf("round %d: %d asked %d for %v: not a sample of a landmark with a live task", round, k.from, k.to, ids)
			}
		}
		clear(named)
		clear(msgs)
	}
	if reported != issued {
		t.Fatalf("%d retrievals issued, %d reported", issued, reported)
	}
	if c := s.h.Counters(); c.InquiryPairs == 0 || c.Inquiries == c.InquiryPairs || expiredBehindLive == 0 {
		t.Fatalf("%d inquiries, %d of them pairs, %d expired tasks behind a live one: the test shows nothing",
			c.Inquiries, c.InquiryPairs, expiredBehindLive)
	}
}

// TestSearchDoneLateAfterRewave: a notice a fault delays past the round the
// committee would have re-rooted its trees finds nothing re-rooted — only the
// searcher sends waves, and it sent none after its result — and once the
// notice lands no tree of the search grows again.
func TestSearchDoneLateAfterRewave(t *testing.T) {
	s, key, data := storedSim(t, 256, churn.ZeroLaw{}, 3)
	var grows atomic.Int64
	s.setFault(watchFault{doneFault{s.h.P.Tau}, func(m *simnet.Msg) {
		if m.Kind == KindSGrow {
			grows.Add(1)
		}
	}})
	const slot = 200
	searcher := s.e.IDAt(slot)
	s.h.RequestRetrieve(s.e, slot, key, data)
	s.run(1)
	roster := s.h.states[slot].searches.get(key).invited
	results := await(s, nil, 1)
	if len(results) != 1 || !results[0].Success {
		t.Fatalf("retrieval did not succeed: %+v", results)
	}
	s.run(s.h.P.Tau) // the notice lands next round
	if searchMembers(s, key, searcher, roster, -1) == 0 {
		t.Fatal("no member holds the search when the late notice lands: the test shows nothing")
	}
	rewaved := 0
	for i := range s.h.states {
		if task := findSearchTask(&s.h.states[i], key, searcher); task != nil && task.wave > results[0].Done {
			rewaved++
		}
	}
	if rewaved != 0 {
		t.Errorf("%d tasks rooted after the result", rewaved)
	}
	before := grows.Load()
	s.run(1 + s.h.P.TreeDepth + 1) // the notice lands and walks the trees
	if got := searchMembers(s, key, searcher, roster, -1); got != 0 {
		t.Errorf("%d members left after the late notice", got)
	}
	s.run(2*s.h.P.Tau - s.h.P.TreeDepth - 2) // 2·Tau rounds from the landing
	if got := grows.Load(); got != before {
		t.Errorf("search trees kept growing after the late notice: %d -> %d grows sent", before, got)
	}
}

// lateWave drops (delay < 0) or delays the grow with Aux aux — one wave's,
// at full depth, so the searcher's — sent to one node, and touches nothing
// else.
type lateWave struct {
	to    simnet.NodeID
	aux   uint64
	delay int
}

func (f lateWave) Fate(_ int, m *simnet.Msg, _ uint64) (bool, int) {
	if m.Kind != KindSGrow || m.To != f.to || m.Aux != f.aux {
		return false, 0
	}
	return f.delay < 0, max(f.delay, 0)
}
func (f lateWave) String() string {
	return fmt.Sprintf("KindSGrow %#x to %d delayed %d", f.aux, f.to, f.delay)
}

// TestSearchDoneBeatsLateInvite: the searcher's first-wave grow to a member,
// delayed into the inbox that holds the search's notice, is read first (it
// was sent first). The member takes up the task and drops it within that
// inbox, before its tick: it grows nothing, exactly as if the grow had been
// lost.
func TestSearchDoneBeatsLateInvite(t *testing.T) {
	const slot = 200
	// run retrieves the stored key from slot, with the first wave's grow to
	// `to` dropped (delay < 0) or delayed. It returns the committee, how many
	// first-wave grows each node received, the rounds the search started and
	// ended, and all grows sent TreeDepth+2 rounds later.
	run := func(to simnet.NodeID, delay int) (roster []simnet.NodeID, reached map[simnet.NodeID]int, start, done int, grows int64) {
		s, key, data := storedSim(t, 256, churn.ZeroLaw{}, 3)
		start = s.e.Round()
		var mu sync.Mutex
		reached = map[simnet.NodeID]int{}
		s.setFault(watchFault{lateWave{to, packGrow(s.h.P.TreeDepth, start+1), delay}, func(m *simnet.Msg) {
			if _, wave := unpackGrow(m.Aux); m.Kind == KindSGrow && wave == start+1 {
				mu.Lock()
				reached[m.To]++
				mu.Unlock()
			}
		}})
		s.h.RequestRetrieve(s.e, slot, key, data)
		s.run(1)
		roster = s.h.states[slot].searches.get(key).invited
		results := await(s, nil, 1)
		if len(results) != 1 || !results[0].Success {
			t.Fatalf("grow to %d delayed %d: retrieval did not succeed: %+v", to, delay, results)
		}
		s.run(s.h.P.TreeDepth + 2)
		return roster, reached, start, results[0].Done, s.h.Counters().GrowSent
	}
	// A member no other tree of the first wave reaches: the delayed grow is
	// the only one that could make it grow that wave.
	roster, reached, _, _, _ := run(0, 0)
	i := slices.IndexFunc(roster, func(id simnet.NodeID) bool { return reached[id] == 1 })
	if i < 0 {
		t.Fatal("every member is reached twice by the first wave: the test shows nothing")
	}
	_, _, start, done, want := run(roster[i], -1)
	_, _, _, lateDone, got := run(roster[i], done-start)
	if lateDone != done {
		t.Fatalf("the search ended in round %d with the grow lost, %d with it late: the grow missed the notice", done, lateDone)
	}
	if got != want {
		t.Errorf("%d grows sent with the first wave landing beside the notice, %d with it lost", got, want)
	}
}

// TestSearchDoneSparesNextSearch: the second of two requests for one key
// starts in the tick the first finishes, so its first wave and tree growth
// race the first search's notice down much the same nodes — ahead of it
// when the notice is on time, behind it when the notice is a round late.
// Either way the notice must end nothing of the second search: its
// committee and the landmarks its trees recruit are exactly those of the
// run in which no notice ever arrives.
func TestSearchDoneSparesNextSearch(t *testing.T) {
	for _, gap := range []int{0, 1} {
		second := func(fault simnet.FaultModel) (members, landmarks int) {
			s, key, data := storedSim(t, 1024, churn.ZeroLaw{}, 3)
			s.setFault(fault)
			slot := 200 // a searcher that has to search: a storage landmark fetches at once
			for slices.Contains(s.h.heldKeys(slot, s.e.Round(), nil), key) {
				slot++
			}
			s.h.RequestRetrieve(s.e, slot, key, data)
			s.run(gap)
			s.h.RequestRetrieve(s.e, slot, key, data)
			results := await(s, nil, 1)
			srch := s.h.states[slot].searches.get(key)
			if len(results) != 1 || !results[0].Success || srch == nil {
				t.Fatalf("gap %d, %v: first retrieval %+v, second running: %v", gap, fault, results, srch != nil)
			}
			ended, roster := results[0].Done, srch.invited
			// The second search's trees are complete, and its own notice —
			// it needs three rounds to find, fetch and end — has reached nobody.
			s.run(s.h.P.TreeDepth + 1)
			members = searchMembers(s, key, s.e.IDAt(slot), roster, ended)
			for i := range s.h.states {
				if task := findSearchTask(&s.h.states[i], key, s.e.IDAt(slot)); task != nil && task.wave > ended {
					landmarks++
				}
			}
			if results = await(s, results, 2); len(results) != 2 || !results[1].Success {
				t.Fatalf("gap %d, %v: second retrieval: %+v", gap, fault, results)
			}
			return members, landmarks
		}
		wantM, wantL := second(doneFault{-1})
		if wantM == 0 || wantL <= wantM {
			t.Fatalf("gap %d: undisturbed second search has %d members, %d landmarks: the test shows nothing", gap, wantM, wantL)
		}
		for _, fault := range []simnet.FaultModel{nil, doneFault{1}} {
			if m, l := second(fault); m != wantM || l != wantL {
				t.Errorf("gap %d, %v: second search has %d members and %d landmarks, undisturbed it has %d and %d",
					gap, fault, m, l, wantM, wantL)
			}
		}
	}
}

// TestSearchDoneIsAdvisory: under paper churn, with the cache off, a run
// that loses every notice reports exactly what the run that delivers them
// reports — and the loss is real: the finished searches' landmarks are
// still there in the first run and gone in the second.
func TestSearchDoneIsAdvisory(t *testing.T) {
	const retrievals = 48
	run := func(fault simnet.FaultModel) (results []SearchResult, tail int) {
		s := newSim(t, 512, churn.PaperLaw(0.5, 0.5), 0, 21)
		s.setFault(fault)
		s.warm()
		keys := []uint64{11, 12, 13, 14}
		for i, key := range keys {
			s.h.RequestStore(s.e, 7+i, key, itemBytes(key, 64))
		}
		s.run(s.h.P.Period)
		for i := 0; i < retrievals; i++ { // 4 a round, every searcher distinct
			key := keys[i%len(keys)]
			s.h.RequestRetrieve(s.e, 20+10*i, key, itemBytes(key, 64))
			if i%4 == 3 {
				s.run(1)
				results = append(results, s.h.DrainResults()...)
			}
		}
		s.run(8)
		results = append(results, s.h.DrainResults()...)
		// Landmarks of the searches that reported at least TreeDepth+2
		// rounds ago, counted before any of them can have aged out.
		for _, r := range results {
			if r.Done >= 0 && r.Done <= s.e.Round()-s.h.P.TreeDepth-2 {
				tail += s.h.SearchLandmarkCount(r.Key, r.Searcher, s.e.Round())
			}
		}
		s.run(s.h.P.SearchTTL())
		return append(results, s.h.DrainResults()...), tail
	}
	lossy, lossyTail := run(doneFault{-1})
	clean, cleanTail := run(nil)
	if len(clean) < 40 {
		t.Fatalf("only %d of %d retrievals reported", len(clean), retrievals)
	}
	if !slices.Equal(lossy, clean) {
		t.Fatalf("results depend on the notice:\n lost      %+v\n delivered %+v", lossy, clean)
	}
	if lossyTail < 10*len(clean) || cleanTail*4 > lossyTail {
		t.Fatalf("finished searches keep %d landmarks with notices lost, %d with them delivered: the drop did not bite", lossyTail, cleanTail)
	}
}

// TestSearchDoneLostSearcher: a searcher churned out mid-search sends no
// notice — there is nobody to send it — and no more waves. From then on no
// tree of its search grows, and every landmark it had is gone LandmarkTTL
// rounds after it left.
func TestSearchDoneLostSearcher(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 5)
	s.warm()
	const slot, missing = 8, 31337
	searcher := s.e.IDAt(slot)
	var grows atomic.Int64
	s.setFault(watchFault{see: func(m *simnet.Msg) {
		if m.Kind == KindSGrow && simnet.NodeID(m.Aux2) == searcher {
			grows.Add(1)
		}
	}})
	s.h.RequestRetrieve(s.e, slot, missing, nil)
	s.run(2 + s.h.P.TreeDepth)                // the first wave's trees are complete
	s.h.OnJoin(s.e, slot, 1<<40, s.e.Round()) // replace the searcher as the engine would on churn
	left, before := s.h.SearchLandmarkCount(missing, searcher, s.e.Round()), grows.Load()
	if left <= s.h.inviteCount() {
		t.Fatalf("the search has %d landmarks when its searcher leaves: no tree grew, the test shows nothing", left)
	}
	s.run(s.h.P.LandmarkTTL())
	if got := grows.Load(); got != before {
		t.Errorf("%d grows sent for the departed searcher's search", got-before)
	}
	if got := s.h.SearchLandmarkCount(missing, searcher, s.e.Round()); got != 0 {
		t.Errorf("%d of the departed searcher's %d landmarks left LandmarkTTL rounds after it", got, left)
	}
	if got := s.h.Counters().Dones; got != 0 {
		t.Errorf("%d notices sent for a search whose searcher is gone", got)
	}
	if rs := s.h.DrainResults(); len(rs) != 0 {
		t.Errorf("the departed searcher reported: %+v", rs)
	}
}
