//go:build !amd64

package route

// withHopKernel runs f: off amd64 there is no kernel, so both sides of a
// kernel test run the Go loop.
func withHopKernel(on bool, f func()) { f() }
