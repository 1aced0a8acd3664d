//go:build !amd64

package route

// useHopKernel is false off amd64: every walk runs the Go loop.
const useHopKernel = false

func hopTwo(k *hopKernel, one bool) int { return 0 }
