package walks

import (
	"math/bits"

	"dynp2p/internal/simnet"
)

// Reference is the serial reference model of the soup: the per-slot-bucket
// implementation the soup started as, transcribed serially, and the one
// place the paper's per-node forwarding cap (2h·log n) and walk deadline τ
// are modelled (Lemma 1, §3), as are traced extra walks (Inject). Under a
// cap a token's fate depends on its position in its slot's bucket, so the
// buckets are materialized here as []Token slices; the soup, which never
// defers a token, holds none.
//
// One round: tokens at churned slots die, last round's samples are
// cleared, every slot appends its fresh walks to its bucket, and every
// bucket is walked in order — a token older than the deadline is dropped
// (Overdue), one past the cap waits in its slot (Deferred), the rest take
// one step. Arrivals append destination by destination in ascending
// source-slot order. The model shares only stepHash with the soup and
// follows the same walk-identity rule (DESIGN.md §6), so without a cap and
// without Inject it delivers the soup's samples slot for slot and round for
// round.
//
// Every event is counted twice: in Metrics in the round it happens, and in
// cohorts under the walk's birth round (the soup books a cohort when it is
// delivered). The work is O(in-flight tokens) per round on one core:
// experiment and test sizes, not production ones.
type Reference struct {
	p          Params
	forwardCap int // tokens forwarded per slot per round; 0 = unlimited
	deadline   int // τ: older tokens are dropped and counted Overdue
	seed       uint64
	buckets    [][]Token
	arrivals   [][]Token // per-round staging, reused
	samples    [][]Sample
	injected   []int // per slot: walks injected since the last StepRound
	m          Metrics
	cohorts    []Metrics // indexed by birth round
}

// NewReference builds the model on e. forwardCap 0 means unlimited; a
// deadline below WalkLength is raised to it.
func NewReference(e *simnet.Engine, p Params, forwardCap, deadline int) *Reference {
	n := e.N()
	return &Reference{
		p: p, forwardCap: forwardCap, deadline: max(deadline, p.WalkLength),
		seed:     e.Config().ProtocolSeed,
		buckets:  make([][]Token, n),
		arrivals: make([][]Token, n),
		samples:  make([][]Sample, n),
		injected: make([]int, n),
	}
}

// Metrics returns the counters, each event counted in its round.
func (s *Reference) Metrics() Metrics { return s.m }

// Samples returns the walks that completed at slot this round, valid until
// the next StepRound.
func (s *Reference) Samples(slot int) []Sample { return s.samples[slot] }

// cohort returns the tally of the walks born in round birth.
func (s *Reference) cohort(birth int32) *Metrics {
	for int(birth) >= len(s.cohorts) {
		s.cohorts = append(s.cohorts, Metrics{})
	}
	return &s.cohorts[birth]
}

// Delivered sums the tallies of every cohort born in or before round
// last: what the soup has booked once cohort last is delivered.
func (s *Reference) Delivered(last int) Metrics {
	var m Metrics
	for b := 0; b <= last && b < len(s.cohorts); b++ {
		m.add(&s.cohorts[b])
	}
	return m
}

// Inject starts count extra walks from slot, born in the round about to
// run (e.Round()), and returns how many it started: their serials continue
// from WalksPerRound across the slot's calls this round, clamped to the
// uint16 range (a wrapped serial would make two walks share their
// step-hash identity and walk in lock-step). The walks join slot's bucket
// now, so a carrier churned in their birth round takes them with it.
func (s *Reference) Inject(e *simnet.Engine, slot, count int) int {
	id := e.IDAt(slot)
	round := int32(e.Round())
	base := s.p.WalksPerRound + s.injected[slot]
	count = max(min(count, 1<<16-base), 0)
	for k := 0; k < count; k++ {
		s.buckets[slot] = append(s.buckets[slot], Token{
			Src: id, Birth: round, Serial: uint16(base + k),
			Steps: uint16(s.p.WalkLength),
		})
	}
	s.injected[slot] += count
	s.m.Generated += int64(count)
	s.cohort(round).Generated += int64(count)
	return count
}

// StepRound implements simnet.RoundHook.
func (s *Reference) StepRound(e *simnet.Engine, round int) {
	// 1. Tokens at churned slots die with their carriers.
	for _, slot := range e.ChurnedThisRound() {
		s.m.Died += int64(len(s.buckets[slot]))
		for _, t := range s.buckets[slot] {
			s.cohort(t.Birth).Died++
		}
		s.buckets[slot] = s.buckets[slot][:0]
	}
	// 2. Clear last round's samples.
	for i := range s.samples {
		s.samples[i] = s.samples[i][:0]
	}
	// 3. Generate fresh walks, numbered by their index in the batch.
	clear(s.injected)
	for slot := range s.buckets {
		id := e.IDAt(slot)
		for k := 0; k < s.p.WalksPerRound; k++ {
			s.buckets[slot] = append(s.buckets[slot], Token{
				Src: id, Birth: int32(round), Serial: uint16(k),
				Steps: uint16(s.p.WalkLength),
			})
		}
		s.m.Generated += int64(s.p.WalksPerRound)
		s.cohort(int32(round)).Generated += int64(s.p.WalksPerRound)
	}
	// 4. Move every token one step, slot-major; arrivals append in
	// ascending source-slot order. Samples go straight to their slot,
	// tokens wait in staging so no bucket is stepped twice.
	g := e.Graph()
	d := uint64(g.Degree())
	for slot, bucket := range s.buckets {
		budget := len(bucket)
		if s.forwardCap > 0 && budget > s.forwardCap {
			budget = s.forwardCap
			s.m.Deferred += int64(len(bucket) - budget)
		}
		keep := bucket[:0]
		for i, t := range bucket {
			if round-int(t.Birth) > s.deadline {
				s.m.Overdue++
				s.cohort(t.Birth).Overdue++
				continue
			}
			if i >= budget {
				keep = append(keep, t)
				continue
			}
			// Step core — keep in sync with replayTok.next (lazy.go).
			h := stepHash(s.seed, round, t.Src, t.Birth, t.Serial)
			port, _ := bits.Mul64(h, d)
			dst := int(g.Neighbor(slot, int(port)))
			t.Steps--
			s.m.Moves++
			s.cohort(t.Birth).Moves++
			if t.Steps == 0 {
				s.m.Completed++
				s.cohort(t.Birth).Completed++
				s.samples[dst] = append(s.samples[dst], Sample{Src: t.Src, Birth: t.Birth})
			} else {
				s.arrivals[dst] = append(s.arrivals[dst], t)
			}
		}
		s.buckets[slot] = keep
	}
	for slot := range s.buckets {
		s.buckets[slot] = append(s.buckets[slot], s.arrivals[slot]...)
		s.arrivals[slot] = s.arrivals[slot][:0]
	}
}
