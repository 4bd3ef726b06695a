package trace

// PendingActivity returns the switching activity the sink has
// accumulated since the last retired sample.
func (c *Capturer) PendingActivity() int { return c.sink.BusAct }
