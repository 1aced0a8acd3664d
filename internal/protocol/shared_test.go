package protocol

import (
	"bytes"
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// arrayKey names one array a holder keeps: its first element and the
// length the holder sees.
type arrayKey[T any] struct {
	first *T
	n     int
}

// intactLedger remembers the contents of every shared array seen so far,
// keyed by the array itself (the key keeps it alive, so its address is
// never reused for another), and how many holders keep each this round.
type intactLedger[T comparable] struct {
	seen    map[arrayKey[T]][]T
	holders map[arrayKey[T]]int
}

func newIntactLedger[T comparable]() intactLedger[T] {
	return intactLedger[T]{seen: map[arrayKey[T]][]T{}, holders: map[arrayKey[T]]int{}}
}

// check records s as held once more this round and fails t if the array
// held other contents when it was first seen.
func (l intactLedger[T]) check(t *testing.T, round int, what string, s []T) {
	t.Helper()
	if len(s) == 0 {
		return
	}
	k := arrayKey[T]{&s[0], len(s)}
	l.holders[k]++
	if old, ok := l.seen[k]; !ok {
		l.seen[k] = slices.Clone(s)
	} else if !slices.Equal(old, s) {
		t.Fatalf("round %d: a shared %s changed after it was sent: %v, first seen as %v", round, what, s, old)
	}
}

// shared returns how many arrays more than one holder kept this round, and
// starts the next round's count.
func (l intactLedger[T]) shared() int {
	n := 0
	for _, c := range l.holders {
		if c > 1 {
			n++
		}
	}
	clear(l.holders)
	return n
}

// TestSharedPayloadsStayIntact: a roster, copy, piece or cached item is
// immutable once sent, so every landmark, member, leader candidate,
// searcher and cache entry a message reached keeps the sender's array
// (Ctx.SetPayload). Under churn, with stores, handovers and retrievals
// over several Periods, the test looks at every roster, stored copy,
// gathered piece and live cache entry each node holds after every round,
// and fails if an array it has seen before holds other contents. The
// cache leg runs two entries a node with half the messages delayed by up
// to 3 rounds, so seeds and served replies evict entries while delayed
// copies of their arrays are still in flight.
func TestSharedPayloadsStayIntact(t *testing.T) {
	for _, leg := range []struct {
		name  string
		idaK  int
		cache bool
	}{{"ida=0", 0, false}, {"ida=4", 4, false}, {"cache", 0, true}} {
		t.Run(leg.name, func(t *testing.T) {
			s := newSimWith(t, 256, churn.RateLaw{C: 0.5, K: 2.0}, 17, func(p *Params) {
				p.IDAThreshold = leg.idaK
				if leg.cache {
					p.CacheCapacity, p.CacheSeedRate = 2, 1
				}
			})
			s.warm()
			if leg.cache {
				s.setFault(simnet.DropDelayFaults{DelayProb: 0.5, MaxDelay: 3})
			}
			items := map[uint64][]byte{}
			for i := range 6 {
				key := uint64(500 + i)
				items[key] = itemBytes(key, 96+40*i)
				s.h.RequestStore(s.e, 7+31*i, key, items[key])
			}
			rosters, blobs, cached := newIntactLedger[simnet.NodeID](), newIntactLedger[byte](), newIntactLedger[byte]()
			sharedRosters, sharedBytes, sharedCached, gathered, ok := 0, 0, 0, 0, 0
			for r := 0; r < 3*s.h.P.Period+s.h.P.SearchTTL(); r++ {
				if r%5 == 0 && r < 3*s.h.P.Period {
					key := uint64(500 + r%6)
					s.h.RequestRetrieve(s.e, (40+13*r)%256, key, items[key])
				}
				s.run(1)
				round := s.e.Round()
				for slot := range s.h.states {
					st := &s.h.states[slot]
					for i := range st.memberships.vals {
						m := &st.memberships.vals[i]
						rosters.check(t, round, "member's roster", m.roster)
						blobs.check(t, round, "stored copy", m.data)
						for _, p := range m.gathered {
							blobs.check(t, round, "gathered piece", p.Data)
							gathered++
						}
					}
					for i := range st.storageLM.vals {
						rosters.check(t, round, "landmark's roster", st.storageLM.vals[i].roster)
					}
					for i := range st.searches.vals {
						for _, p := range st.searches.vals[i].pieces {
							blobs.check(t, round, "searcher's piece", p.Data)
						}
					}
				}
				for i := range s.h.cacheArena {
					if e := &s.h.cacheArena[i]; e.expiry != 0 && round < int(e.expiry) {
						cached.check(t, round, "cached item", e.data)
						if !bytes.Equal(e.data, items[e.key]) {
							t.Fatalf("round %d: a cache entry for key %d holds other bytes", round, e.key)
						}
					}
				}
				sharedRosters += rosters.shared()
				sharedBytes += blobs.shared()
				sharedCached += cached.shared()
				for _, res := range s.h.DrainResults() {
					if res.Success {
						ok++
					}
				}
			}
			c := s.h.Counters()
			if sharedRosters == 0 || sharedBytes == 0 || c.Handovers == 0 || ok == 0 || leg.idaK > 0 && (gathered == 0 || c.IDARecoded == 0) {
				t.Fatalf("%d roster and %d byte array-rounds with two or more holders, %d handovers (%d recoded), %d gathered pieces, %d retrievals ok: the test shows nothing",
					sharedRosters, sharedBytes, c.Handovers, c.IDARecoded, gathered, ok)
			}
			if delayed := s.e.Metrics().MsgsDelayed; leg.cache && (c.CacheInserts == 0 || c.CacheServed == 0 || delayed == 0 || sharedCached == 0) {
				t.Fatalf("%d cache inserts, %d serves, %d messages delayed, %d cached array-rounds with two or more entries: the cache leg shows nothing",
					c.CacheInserts, c.CacheServed, delayed, sharedCached)
			}
			t.Logf("%d roster, %d byte and %d cached arrays seen, held by two or more holders in %d, %d and %d array-rounds; %d handovers, %d gathered pieces, %d retrievals ok, %d cache inserts, %d serves",
				len(rosters.seen), len(blobs.seen), len(cached.seen), sharedRosters, sharedBytes, sharedCached, c.Handovers, gathered, ok, c.CacheInserts, c.CacheServed)
		})
	}
}

// growProbe is the protocol handler with one measurement: in the first
// round a node receives a storage grow, it times onGrow on that message
// before the node handles its inbox.
type growProbe struct {
	*Handler
	t      *testing.T
	allocs float64
	done   bool
}

func (p *growProbe) HandleRound(ctx *simnet.Ctx) {
	for i := 0; i < len(ctx.Inbox) && !p.done; i++ {
		m := &ctx.Inbox[i]
		if m.Kind != KindLGrow || len(m.IDs()) == 0 {
			continue
		}
		p.done = true
		st := &p.states[ctx.Slot]
		saved, had := lmEntry{}, false
		if e := st.storageLM.get(m.Item); e != nil {
			saved, had = *e, true
		}
		// A leaf of the tree: it registers and grows nothing further, so
		// the send buffers are not part of what is measured.
		leaf := *m
		_, wave := unpackGrow(m.Aux)
		leaf.Aux = packGrow(0, wave)
		sl := &p.slabs[ctx.Shard]
		st.storageLM.put(sl, leaf.Item, lmEntry{}) // room for the entry
		p.allocs = testing.AllocsPerRun(50, func() {
			st.storageLM.del(leaf.Item)
			p.onGrow(ctx, st, &leaf)
		})
		if e := st.storageLM.get(leaf.Item); e == nil || &e.roster[0] != &m.IDs()[0] {
			p.t.Errorf("the landmark does not keep the grow's roster: %+v", e)
		}
		st.storageLM.del(leaf.Item)
		if had {
			st.storageLM.put(sl, leaf.Item, saved)
		}
	}
	p.Handler.HandleRound(ctx)
}

// TestGrowAllocatesNothing: a storage grow that lands on a node whose
// landmark table has room for the entry allocates nothing — the landmark
// keeps the message's roster.
func TestGrowAllocatesNothing(t *testing.T) {
	const n = 256
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: simnet.EdgesRerandomize,
		AdversarySeed: 3, ProtocolSeed: 4, Strategy: churn.Uniform, Law: churn.ZeroLaw{},
		Workers: 1, // nothing else allocates while the probe measures
	})
	wp := walks.DefaultParams(n)
	soup := walks.NewSoup(e, wp, 1)
	e.AddHook(soup)
	p := &growProbe{Handler: NewHandler(e, soup, DefaultParams(n, wp.WalkLength)), t: t}
	e.Run(p, wp.WalkLength+3)
	p.RequestStore(e, 5, 64, itemBytes(64, 32))
	for r := 0; r < p.P.Period && !p.done; r++ {
		e.Run(p, 1)
	}
	if !p.done {
		t.Fatal("no storage grow landed in a Period")
	}
	if p.allocs != 0 {
		t.Fatalf("a grow allocated %.0f times", p.allocs)
	}
}
