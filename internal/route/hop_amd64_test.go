package route

// withHopKernel runs f with the hop kernel switched on or off, restoring
// the host's choice afterwards.
func withHopKernel(on bool, f func()) {
	defer func(was bool) { useHopKernel = was }(useHopKernel)
	useHopKernel = on
	f()
}
