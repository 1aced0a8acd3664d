package scenario

// TotalRounds returns warm-up plus the sum of phase durations plus the
// final drain (one search TTL of workload-free rounds that lets in-flight
// retrievals finish or expire).
func (s *Spec) TotalRounds() int {
	t := s.WarmupRounds() + s.DrainRounds()
	for _, p := range s.Phases {
		t += p.Rounds
	}
	return t
}
