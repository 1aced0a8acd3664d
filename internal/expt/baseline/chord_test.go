package baseline

import (
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

func newEngine(n int, law churn.Law, seed uint64) *simnet.Engine {
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: seed, ProtocolSeed: seed + 1,
		Strategy: churn.Uniform, Law: law,
	})
}

// CopyCount returns how many nodes hold key.
func (h *ChordHandler) CopyCount(key uint64) int {
	c := 0
	for i := range h.states {
		if _, ok := h.states[i].items[key]; ok {
			c++
		}
	}
	return c
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b uint64
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false},
		{10, 20, 20, true},
		{10, 25, 20, false},
		{20, 25, 10, true},  // wrap
		{20, 5, 10, true},   // wrap
		{20, 15, 10, false}, // wrap
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Fatalf("between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

func TestBootstrapRingHealthy(t *testing.T) {
	e := newEngine(256, churn.ZeroLaw{}, 1)
	h := NewChord(256)
	e.RunRound(h) // round 0 joins
	h.Bootstrap(e)
	if got := h.RingHealth(e); got != 1.0 {
		t.Fatalf("bootstrapped ring health = %v, want 1", got)
	}
}

func TestStoreAndGetNoChurn(t *testing.T) {
	e := newEngine(256, churn.ZeroLaw{}, 2)
	h := NewChord(256)
	e.RunRound(h)
	h.Bootstrap(e)
	h.RequestStore(e, 3, 42, []byte("hello dht"))
	e.Run(h, h.ttl+5)
	if h.CopyCount(42) == 0 {
		t.Fatal("stored item landed nowhere")
	}
	h.RequestGet(e, 200, 42, 2*h.ttl+10)
	var res []Result
	for i := 0; i < 2*h.ttl+12 && len(res) == 0; i++ {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("DHT get failed: %+v", res)
	}
	if res[0].Hops <= 0 || res[0].Hops > h.ttl+1 {
		t.Fatalf("Hops = %d, want in (0, %d]", res[0].Hops, h.ttl+1)
	}
}

func TestGetMissingKeyExpires(t *testing.T) {
	e := newEngine(128, churn.ZeroLaw{}, 3)
	h := NewChord(128)
	e.RunRound(h)
	h.Bootstrap(e)
	h.RequestGet(e, 5, 31337, 20)
	var res []Result
	for i := 0; i < 25 && len(res) == 0; i++ {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	if len(res) != 1 || res[0].Success {
		t.Fatalf("missing key should expire: %+v", res)
	}
}

func TestRingSurvivesMildChurn(t *testing.T) {
	e := newEngine(256, churn.FixedLaw{Count: 2}, 4)
	h := NewChord(256)
	e.RunRound(h)
	h.Bootstrap(e)
	e.Run(h, 80)
	if got := h.RingHealth(e); got < 0.8 {
		t.Fatalf("ring health %v under mild churn, want >= 0.8", got)
	}
}

func TestLookupsSucceedUnderMildChurn(t *testing.T) {
	e := newEngine(256, churn.FixedLaw{Count: 1}, 5)
	h := NewChord(256)
	e.RunRound(h)
	h.Bootstrap(e)
	h.RequestStore(e, 0, 9, []byte("v"))
	e.Run(h, 30)
	ok := 0
	const tries = 6
	for i := 0; i < tries; i++ {
		h.RequestGet(e, 20+i*31, 9, 60)
	}
	deadline := e.Round() + 70
	var res []Result
	for e.Round() < deadline && len(res) < tries {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	for _, r := range res {
		if r.Success {
			ok++
		}
	}
	if ok < tries/2 {
		t.Fatalf("only %d/%d lookups succeeded under mild churn", ok, tries)
	}
}

func TestHeavyChurnDegradesDHT(t *testing.T) {
	// At paper-scale churn the ring cannot keep up: health decays well
	// below the mild-churn case. (This is the E12 separation in miniature.)
	heavy := newEngine(256, churn.RateLaw{C: 4, K: 1.2}, 6)
	hh := NewChord(256)
	heavy.RunRound(hh)
	hh.Bootstrap(heavy)
	heavy.Run(hh, 80)
	heavyHealth := hh.RingHealth(heavy)

	mild := newEngine(256, churn.FixedLaw{Count: 1}, 6)
	hm := NewChord(256)
	mild.RunRound(hm)
	hm.Bootstrap(mild)
	mild.Run(hm, 80)
	mildHealth := hm.RingHealth(mild)

	if heavyHealth >= mildHealth {
		t.Fatalf("heavy churn (health %v) should degrade the ring below mild churn (health %v)",
			heavyHealth, mildHealth)
	}
}

func TestJoinAfterChurn(t *testing.T) {
	// Replacement nodes must re-enter the ring via their graph
	// neighbours. A join needs O(log n) hop-rounds, so at churn rate c
	// the steady-state joined fraction is about 1 - c·latency/n; with
	// c = 2 on n = 128 we expect ~85-95% joined.
	e := newEngine(128, churn.FixedLaw{Count: 2}, 7)
	h := NewChord(128)
	e.RunRound(h)
	h.Bootstrap(e)
	e.Run(h, 60)
	joined := 0
	for s := range h.states {
		if h.states[s].joined {
			joined++
		}
	}
	if joined < 100 {
		t.Fatalf("only %d/128 nodes in the ring after churn; joins not working", joined)
	}
}

func TestPointDeterministic(t *testing.T) {
	if Point(12345) != Point(12345) {
		t.Fatal("Point not deterministic")
	}
	if Point(1) == Point(2) {
		t.Fatal("Point collides on adjacent inputs")
	}
}
