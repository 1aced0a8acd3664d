package telemetry

// LiveTraces returns the number of operations currently being traced.
func (t *Tracer) LiveTraces() int { return len(t.live) }
