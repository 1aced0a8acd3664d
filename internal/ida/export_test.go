package ida

// L returns the total number of pieces produced.
func (c *Coder) L() int { return c.l }
