package baseline

import (
	"testing"

	"dynp2p/internal/churn"
)

// CopyCount returns the number of nodes holding key.
func (h *FloodHandler) CopyCount(key uint64) int {
	c := 0
	for i := range h.states {
		if _, ok := h.states[i].items[key]; ok {
			c++
		}
	}
	return c
}

func TestFloodStoreReachesEveryone(t *testing.T) {
	e := newEngine(256, churn.ZeroLaw{}, 1)
	h := NewFlood(256)
	e.RunRound(h)
	h.RequestStore(e, 0, 42, []byte("payload"))
	// Expander diameter is O(log n); 15 rounds is ample for n=256.
	e.Run(h, 15)
	if c := h.CopyCount(42); c != 256 {
		t.Fatalf("flooded item reached %d/256 nodes", c)
	}
}

func TestFloodSearchSucceedsAndIsFast(t *testing.T) {
	e := newEngine(256, churn.ZeroLaw{}, 1)
	h := NewFlood(256)
	e.RunRound(h)
	h.RequestStore(e, 0, 7, []byte("x"))
	e.Run(h, 15)
	h.RequestGet(e, 100, 7, 30)
	var res []Result
	for i := 0; i < 30 && len(res) == 0; i++ {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("flood search failed: %+v", res)
	}
	// Everyone has the item, so the local hit resolves instantly.
	if res[0].Done-res[0].Start > 2 {
		t.Fatalf("search took %d rounds, expected immediate", res[0].Done-res[0].Start)
	}
}

func TestFloodSearchWithoutLocalCopy(t *testing.T) {
	// Store only partially flooded (interrupted), then search from a node
	// without the item: query flood must find a holder.
	e := newEngine(256, churn.ZeroLaw{}, 1)
	h := NewFlood(256)
	e.RunRound(h)
	h.RequestStore(e, 0, 9, []byte("y"))
	e.Run(h, 2) // partial spread
	have := h.CopyCount(9)
	if have == 0 || have == 256 {
		t.Fatalf("expected partial spread, have %d copies", have)
	}
	// Find a node without the item.
	slot := -1
	for s := 0; s < 256; s++ {
		if _, ok := h.states[s].items[9]; !ok {
			slot = s
			break
		}
	}
	h.RequestGet(e, slot, 9, 40)
	var res []Result
	for i := 0; i < 40 && len(res) == 0; i++ {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("query flood failed: %+v", res)
	}
}

func TestFloodSearchMissingItemExpires(t *testing.T) {
	e := newEngine(128, churn.ZeroLaw{}, 1)
	h := NewFlood(128)
	e.RunRound(h)
	h.RequestGet(e, 5, 999, 10)
	var res []Result
	for i := 0; i < 15 && len(res) == 0; i++ {
		e.RunRound(h)
		res = append(res, h.DrainResults(e.Round())...)
	}
	if len(res) != 1 || res[0].Success {
		t.Fatalf("missing-item search should expire as failure: %+v", res)
	}
}

func TestFloodCopiesDecayUnderChurn(t *testing.T) {
	// One-shot flooding has no persistence: churn erodes the copies.
	e := newEngine(256, churn.FixedLaw{Count: 13}, 1)
	h := NewFlood(256)
	e.RunRound(h)
	h.RequestStore(e, 0, 3, []byte("z"))
	e.Run(h, 40) // let the flood saturate first
	full := h.CopyCount(3)
	e.Run(h, 120)
	later := h.CopyCount(3)
	if later >= full/2 {
		t.Fatalf("copies did not decay: %d -> %d", full, later)
	}
}

func TestFloodMessageCostIsLinear(t *testing.T) {
	// The scalability wall: one store costs Ω(n) messages.
	e := newEngine(512, churn.ZeroLaw{}, 1)
	h := NewFlood(512)
	e.RunRound(h)
	base := e.Metrics().MsgsSent
	h.RequestStore(e, 0, 1, []byte("w"))
	e.Run(h, 15)
	sent := e.Metrics().MsgsSent - base
	if sent < int64(512) {
		t.Fatalf("flood sent only %d messages; expected at least n", sent)
	}
}
