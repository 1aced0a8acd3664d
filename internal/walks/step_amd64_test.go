package walks

import (
	"slices"
	"testing"

	"dynp2p/internal/rng"
)

// withKernel runs f with stepCohort's eight-wide kernel switched on or off,
// restoring the host's choice afterwards.
func withKernel(vector bool, f func()) {
	defer func(was bool) { useAVX512 = was }(useAVX512)
	useAVX512 = vector
	f()
}

// needAVX512 skips t on a host without the vector kernel's features.
func needAVX512(t testing.TB) {
	t.Helper()
	if !cpuHasAVX512() {
		t.Skip("the CPU lacks AVX512F/AVX512DQ/POPCNT or the OS does not save ZMM state: only the Go loop runs here")
	}
}

// stepCase is one cohort to step: a random row of n slots of degree d,
// tokens at random slots (every fourth near n-1), and a death bitset.
type stepCase struct {
	row   []int32
	death []uint64
	toks  []replayTok
	d     int
}

func randomRow(r *rng.Stream, n, d int) []int32 {
	row := make([]int32, n*d)
	for i := range row {
		row[i] = int32(r.Intn(n))
	}
	return row
}

// randomDeath marks about frac of n slots dead; nil when frac < 0.
func randomDeath(r *rng.Stream, n int, frac float64) []uint64 {
	if frac < 0 {
		return nil
	}
	death := make([]uint64, (n+63)/64)
	for s := 0; s < n; s++ {
		if r.Float64() < frac {
			death[s>>6] |= 1 << (s & 63)
		}
	}
	return death
}

func randomToks(r *rng.Stream, n, tokens int) []replayTok {
	toks := make([]replayTok, tokens)
	for i := range toks {
		pos := r.Intn(n)
		if i%4 == 0 {
			pos = n - 1 - r.Intn(min(n, 8))
		}
		toks[i] = replayTok{key: r.Uint64(), pos: int32(pos), idx: uint32(i)}
	}
	return toks
}

// stepBoth steps c for rounds rounds through the Go loop and through the
// vector kernel, failing at the first round whose live count or tokens
// differ.
func stepBoth(t testing.TB, c stepCase, x uint64, rounds int) {
	t.Helper()
	goToks, vecToks := slices.Clone(c.toks), slices.Clone(c.toks)
	for round := 0; round < rounds; round++ {
		xr := x + uint64(round)*0x9e3779b97f4a7c15
		var goLive, vecLive int
		withKernel(false, func() { goLive = stepCohort(goToks, c.death, c.row, c.d, xr) })
		withKernel(true, func() { vecLive = stepCohort(vecToks, c.death, c.row, c.d, xr) })
		if goLive != vecLive {
			t.Fatalf("round %d (n=%d d=%d, %d tokens): %d live from the vector kernel, %d from the Go loop",
				round, len(c.row)/c.d, c.d, len(goToks), vecLive, goLive)
		}
		goToks, vecToks = goToks[:goLive], vecToks[:vecLive]
		for i := range goToks {
			if goToks[i] != vecToks[i] {
				t.Fatalf("round %d (n=%d d=%d): token %d is %+v from the vector kernel, %+v from the Go loop",
					round, len(c.row)/c.d, c.d, i, vecToks[i], goToks[i])
			}
		}
	}
}

// TestStepCohortVectorMatchesGo pins the eight-wide kernel against the Go
// loop token for token over 20 rounds: cohort lengths 0 … 1040 (every
// residue mod 8), degrees 2 … 16, networks up to 2²⁰ slots with tokens
// near the last slot, and no death bitset, a sparse one and one with more
// than half the slots dead.
func TestStepCohortVectorMatchesGo(t *testing.T) {
	needAVX512(t)
	r := rng.New(38)
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 1040}
	for l := 24; l < 32; l++ {
		lengths = append(lengths, l)
	}
	for _, n := range []int{1, 9, 64, 1000, 1 << 14, 1 << 20} {
		for _, d := range []int{2, 4, 6, 8, 10, 12, 16} {
			if n == 1<<20 && d > 8 {
				continue // keeps the row at 32 MB
			}
			row := randomRow(r, n, d)
			for _, deadFrac := range []float64{-1, 0.01, 0.6} {
				death := randomDeath(r, n, deadFrac)
				for _, tokens := range lengths {
					stepBoth(t, stepCase{row, death, randomToks(r, n, tokens), d}, r.Uint64(), 20)
				}
			}
		}
	}
}

// TestLazyMatchesReferenceBothKernels re-runs the soup's reference legs,
// snapshot ring and delta ring, with the vector kernel off and on.
func TestLazyMatchesReferenceBothKernels(t *testing.T) {
	needAVX512(t)
	for _, vector := range []bool{false, true} {
		withKernel(vector, func() {
			t.Run(Kernel(), func(t *testing.T) {
				TestLazyMatchesReference(t)
				TestDeltaRingMatchesReference(t)
			})
		})
	}
}

// FuzzStepCohort steps a fuzzed cohort through both kernels.
func FuzzStepCohort(f *testing.F) {
	needAVX512(f)
	f.Add(uint64(1), uint16(1000), uint8(8), uint16(81), uint8(0))
	f.Add(uint64(2), uint16(64), uint8(2), uint16(1040), uint8(200))
	f.Add(uint64(3), uint16(1), uint8(16), uint16(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, d uint8, tokens uint16, dead uint8) {
		if n == 0 || d == 0 {
			return
		}
		r := rng.New(seed)
		deadFrac := float64(dead)/255 - 0.1 // below zero: no death bitset
		nn, dd := int(n), int(d)%17+1
		c := stepCase{randomRow(r, nn, dd), randomDeath(r, nn, deadFrac), randomToks(r, nn, int(tokens)%1041), dd}
		stepBoth(t, c, r.Uint64(), 20)
	})
}

// BenchmarkStepCohort steps one steady-oracle-sized cohort (n=16384, d=8,
// 81,920 tokens, a sparse death bitset) through the 19 stepping rounds of
// a T=20 walk on each kernel, and reports ns per token-step.
func BenchmarkStepCohort(b *testing.B) {
	const n, d, tokens, rounds = 16384, 8, 81920, 19
	r := rng.New(38)
	row, death := randomRow(r, n, d), randomDeath(r, n, 0.002)
	start := randomToks(r, n, tokens)
	for _, vector := range []bool{false, true} {
		name := "go"
		if vector {
			name = "avx512"
		}
		b.Run(name, func(b *testing.B) {
			if vector {
				needAVX512(b)
			}
			toks := make([]replayTok, tokens)
			moves := 0
			withKernel(vector, func() {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(toks, start)
					live := toks
					b.StartTimer()
					for round := 0; round < rounds; round++ {
						live = live[:stepCohort(live, death, row, d, uint64(round))]
						moves += len(live)
					}
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/token-step")
		})
	}
}
