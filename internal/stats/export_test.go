package stats

// Total returns the number of observations.
func (c *Counter) Total() int { return c.total }
