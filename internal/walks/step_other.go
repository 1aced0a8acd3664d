//go:build !amd64

package walks

// useAVX512 is false off amd64: stepCohort is the Go loop alone.
const useAVX512 = false

func stepCohortAVX512(toks []replayTok, death []uint64, row []int32, d int, x uint64) (done, live int) {
	return 0, 0
}
