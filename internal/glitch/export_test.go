package glitch

// Armed reports whether a shot is pending or in flight.
func (g *Glitcher) Armed() bool { return g.armed }

// Fired reports whether the current/last shot's trigger matched.
func (g *Glitcher) Fired() bool { return g.fired }
