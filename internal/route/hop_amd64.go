package route

// useHopKernel says every walk runs hopTwo. The tests that pin the
// kernel against the Go loop flip it.
var useHopKernel = true

// hopTwo walks k's ways a Go-loop hop each per iteration — both, or way
// 0 alone when one is set — until a way's walker stands on its target,
// has used k.limit forwards or, with holders, stands on a near slot,
// writes the walked ways' slots and hops back, and returns the way that
// ended (hop_amd64.s). It trusts what the Go loop bounds-checks: every
// slot is below len(fwd), every row entry is a slot and every near bitset
// covers every slot.
//
//go:noescape
func hopTwo(k *hopKernel, one bool) int
