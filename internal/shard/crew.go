package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pollFor is how long a waiting worker — a helper between phases, or the
// caller at a phase's end — polls before it parks: long enough to bridge
// the serial step between two soup replay rounds.
const pollFor = 30 * time.Microsecond

// Crew is the fixed team of workers that runs every parallel phase of an
// engine: the caller of Do is worker 0, and Workers()−1 long-lived helper
// goroutines are workers 1, 2, …. A phase splits its indices into one
// contiguous range per worker, so every phase over a grid gives a shard
// to the same worker; a worker whose range is empty steals from the
// others'. Which worker runs an index must reach no result. The helpers
// hold only the inner crew, so the Crew's finalizer stops them once the
// Crew is unreachable.
type Crew struct{ *crew }

// A phase's state is one word: its generation (mod 2³²) above bit 32,
// then the closed bit, then how many helpers are out of it. A helper
// joins the newest phase by taking itself off that count, and works only
// if the phase is open; the caller closes the phase after its own pass
// and waits only for the helpers that joined, never for one still waking.
const closed = 1 << 31

type crew struct {
	helpers int
	fn      func(i int)   // the phase in progress; nil between phases
	ranges  []cursor      // worker w's range of the phase
	state   atomic.Uint64 // generation<<32 | closed | helpers out
	quit    atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond // parked waiters; a waker changes state, then broadcasts
}

// A cursor hands out one worker's range [next, end), on its own cache line.
type cursor struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// NewCrew starts a crew of max(workers, 1) workers.
func NewCrew(workers int) *Crew {
	k := &crew{helpers: max(workers, 1) - 1, ranges: make([]cursor, max(workers, 1))}
	k.cond.L = &k.mu
	k.state.Store(closed | uint64(k.helpers))
	for h := 1; h <= k.helpers; h++ {
		go k.help(h)
	}
	c := &Crew{k}
	runtime.SetFinalizer(c, func(c *Crew) {
		c.quit.Store(true)
		c.state.Add(1 << 32) // a new generation that stays closed
		c.wake()
	})
	return c
}

// Workers returns the crew's worker count, the caller included.
func (c *Crew) Workers() int { return c.helpers + 1 }

// Do runs fn(i) once for every i in [0, count) and returns when all have
// run. Worker w owns [w·count/W, (w+1)·count/W) of W = Workers(), the
// Grid.Bounds rule. fn must be safe to call concurrently; Do is not
// reentrant.
func (c *Crew) Do(count int, fn func(i int)) {
	k := c.crew
	k.arm(count, fn)
	k.state.Add(1<<32 - closed) // open the next generation
	k.wake()
	k.work(0)
	k.state.Add(closed) // no helper joins now; wait for those that did
	k.wait(func(s uint64) bool { return s&(closed-1) == uint64(k.helpers) })
	k.fn = nil // an idle crew keeps no closure, and so no engine, alive
	runtime.KeepAlive(c)
}

// arm sets up a phase of count indices without opening it.
func (k *crew) arm(count int, fn func(i int)) {
	k.fn = fn
	w := len(k.ranges)
	for i := range k.ranges {
		k.ranges[i].next.Store(int64(i * count / w))
		k.ranges[i].end = int64((i + 1) * count / w)
	}
}

// help is helper h's life: join each phase it sees, work the phase as
// worker h if it is open, and leave; the last to leave a closed phase
// releases the caller.
func (k *crew) help(h int) {
	for seen := uint64(0); ; {
		k.wait(func(s uint64) bool { return s>>32 != seen })
		if k.quit.Load() {
			return
		}
		s := k.state.Add(^uint64(0))
		if seen = s >> 32; s&closed == 0 {
			k.work(h)
		}
		if s = k.state.Add(1); s&closed != 0 && s&(closed-1) == uint64(k.helpers) {
			k.wake()
		}
	}
}

// work is worker w's pass over the phase: it drains its own range, then
// steals from the others' in ring order.
func (k *crew) work(w int) {
	for j := range k.ranges {
		r := &k.ranges[(w+j)%len(k.ranges)]
		for i := r.next.Add(1) - 1; i < r.end; i = r.next.Add(1) - 1 {
			k.fn(int(i))
		}
	}
}

func (k *crew) wake() {
	k.mu.Lock()
	k.cond.Broadcast()
	k.mu.Unlock()
}

// wait returns once done holds for the state: it polls for pollFor, then
// locks, re-checks and parks until a wake.
func (k *crew) wait(done func(state uint64) bool) {
	for start := time.Now(); time.Since(start) < pollFor; {
		for i := 0; i < 64; i++ {
			if done(k.state.Load()) {
				return
			}
		}
	}
	k.mu.Lock()
	for !done(k.state.Load()) {
		k.cond.Wait()
	}
	k.mu.Unlock()
}
