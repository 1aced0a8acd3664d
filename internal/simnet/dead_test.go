package simnet

import (
	"reflect"
	"testing"

	"dynp2p/internal/churn"
)

// inert is a fault model that never perturbs a message. Setting it takes
// the send path a fault model needs, where every message, a dead letter
// included, goes through the send buffer to the scatter.
type inert struct{}

func (inert) Fate(int, *Msg, uint64) (bool, int) { return false, 0 }
func (inert) String() string                     { return "inert" }

// received is one inbox message as its handler read it: the header with
// the cell pointer cleared, and the cell's contents.
type received struct {
	h Msg
	p payload
}

// lateSender addresses most of its sends to ids that were live lag rounds
// ago, as a landmark inquires of the sources of its walk samples, so a
// steady share of them are dead letters. A node sends three messages a
// round: one with an id list and a blob and one keyed and traced, both to
// old ids, and one with a blob to a live node. Every inbox message is
// recorded per slot.
type lateSender struct {
	past [lag][]NodeID // live ids by round, a ring the hook writes
	got  [][]received  // per slot, every message its inboxes held
}

const lag = 6

func (h *lateSender) StepRound(e *Engine, round int) {
	h.past[round%lag] = e.LiveIDs(h.past[round%lag][:0])
}

func (h *lateSender) OnJoin(*Engine, int, NodeID, int)  {}
func (h *lateSender) OnLeave(*Engine, int, NodeID, int) {}
func (h *lateSender) HandleRound(ctx *Ctx) {
	for i := range ctx.Inbox {
		m := &ctx.Inbox[i]
		r := received{h: *m}
		r.h.payload = nil
		if m.payload != nil {
			r.p = *m.payload
		}
		h.got[ctx.Slot] = append(h.got[ctx.Slot], r)
	}
	old := h.past[(ctx.Round+1)%lag] // written lag-1 rounds ago, or nil
	pick := func() NodeID {
		if len(old) == 0 {
			return ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N()))
		}
		return old[ctx.Rand.Intn(len(old))]
	}
	m := ctx.SendMsg(pick(), 1)
	m.Item, m.Aux = uint64(ctx.Slot), uint64(ctx.Round)
	ctx.SetPayload(m, []NodeID{ctx.ID, NodeID(ctx.Round)}, []byte{byte(ctx.Slot), 1})
	m = ctx.SendKeyed(pick(), 2)
	m.Item, m.Aux2 = uint64(ctx.Round), uint64(ctx.ID)
	ctx.SetTrace(m, uint64(ctx.ID)<<8|uint64(ctx.Round))
	m = ctx.SendMsg(ctx.E.IDAt(ctx.Rand.Intn(ctx.E.N())), 3)
	ctx.SetPayload(m, nil, []byte{byte(ctx.Round), 3, byte(ctx.Slot)})
}

// TestDeadLetterDropsAtSend runs one oracle workload under churn twice:
// plainly, where a dead letter drops at its send, and with the inert fault
// model, where it travels to the scatter and drops there. Both runs must
// count alike — Metrics and the per-kind tally, Dead included — and fill
// every inbox with the same messages, header and cell; the plain run's
// send buffers and payload cells must hold no dead letter, and the dead
// letters must be among the churn drops.
func TestDeadLetterDropsAtSend(t *testing.T) {
	const n, rounds = 256, 30
	run := func(fault FaultModel) (*Engine, *lateSender) {
		cfg := testConfig(n, churn.FixedLaw{Count: 16})
		cfg.Fault, cfg.Workers = fault, 2
		e := New(cfg)
		h := &lateSender{got: make([][]received, n)}
		e.AddHook(h)
		for r := 0; r < rounds; r++ {
			e.RunRound(h)
			if fault != nil {
				continue
			}
			// Between rounds liveness is what it was at the sends.
			for sh := range e.shardOut {
				rs := &e.shardOut[sh]
				cells := 0
				for i := range rs.out.Len() {
					m := rs.out.At(i)
					if !e.IsLive(m.To) {
						t.Fatalf("round %d: a send to departed id %d sits in shard %d's send buffer", r, m.To, sh)
					}
					if m.payload != nil {
						cells++
					}
				}
				if got := rs.pay[r&1].Len(); got != cells {
					t.Fatalf("round %d: shard %d took %d payload cells for %d buffered messages with one", r, sh, got, cells)
				}
			}
		}
		return e, h
	}
	plain, hp := run(nil)
	forced, hf := run(inert{})

	if mp, mf := plain.Metrics(), forced.Metrics(); mp != mf {
		t.Errorf("metrics differ:\n  at the send  %+v\n  at the scatter %+v", mp, mf)
	}
	var dead int64
	for k := range 256 {
		kp, kf := plain.KindCount(uint8(k)), forced.KindCount(uint8(k))
		if kp != kf {
			t.Errorf("kind %d: tally %+v at the send, %+v at the scatter", k, kp, kf)
		}
		dead += kp.Dead
	}
	m := plain.Metrics()
	if dead == 0 || dead > m.MsgsDropped || m.MsgsDelivered == 0 {
		t.Errorf("%d dead letters, %d churn drops, %d delivered: want 0 < dead ≤ drops and deliveries", dead, m.MsgsDropped, m.MsgsDelivered)
	}
	t.Logf("%d sent, %d delivered, %d dropped to churn, %d of them dead at send", m.MsgsSent, m.MsgsDelivered, m.MsgsDropped, dead)
	for s := range hp.got {
		if !reflect.DeepEqual(hp.got[s], hf.got[s]) {
			t.Fatalf("slot %d: inboxes differ (%d messages at the send, %d at the scatter)", s, len(hp.got[s]), len(hf.got[s]))
		}
	}
}
