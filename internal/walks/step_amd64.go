package walks

// useAVX512 says stepCohort runs its eight-wide kernel. It is fixed once,
// from the CPU; the tests that pin the kernel against the Go loop flip it.
var useAVX512 = cpuHasAVX512()

// cpuHasAVX512 reports AVX512F, AVX512DQ and POPCNT with the OS
// saving opmask and ZMM state (step_amd64.s).
func cpuHasAVX512() bool

// stepCohortAVX512 steps the leading multiple of eight of toks like
// stepCohort, compacting the live ones to the front, and returns how many
// it read and how many it kept (step_amd64.s). It trusts what the Go loop
// bounds-checks: every pos is below len(death)·64 and len(row)/d, every
// row entry is a slot, and d is below 2³².
//
//go:noescape
func stepCohortAVX512(toks []replayTok, death []uint64, row []int32, d int, x uint64) (done, live int)
