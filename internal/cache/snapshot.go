package cache

// Snapshot support for the cache's non-SRAM state. The tag and data RAMs
// are sram.Arrays and are captured by their own ArraySnapshots (the SoC
// enumerates them via Arrays()); what remains here is the plain-memory
// microarchitectural state a fork must also rewind so a restored trial
// replays bit-identically: LRU timestamps (they decide eviction order),
// the enable and way-lock configuration, and the hit/miss statistics.
//
// A capture copies every timestamp once and arms the touched log (see
// Cache.snapFloor); a restore of the tracked snapshot rewinds only the
// entries touched since the capture or the last restore, so it costs
// what the trial touched, not the cache's size. Restoring a snapshot the
// cache is not tracking copies every timestamp and tracks that one.
//
// The way memo, contentGen and the fetch marks are deliberately NOT
// captured: all three are derived state. contentGen stays monotonic.
// RestoreAux bumps it when the rewind can reach what a predecoded fetch
// observes: when the enable bit changes back, or when one of the
// cache's arrays moved its generation since the last capture or
// restore (the SoC restores the arrays first, so an array its own
// restore rewound has already bumped). The bump retires every
// superblock stamp issued since and clears every fetch mark. Without it
// the marks stay valid: they still describe lines whose content did not
// change.
// The memo is simply dropped (its re-resolution is invisible to
// replacement order, stats, and contents).

// AuxSnapshot is the captured non-SRAM state of one Cache.
type AuxSnapshot struct {
	c          *Cache
	lastUse    [][]uint64
	useTick    uint64
	enabled    bool
	lockedWays []bool
	stats      Stats
}

// CaptureAux records the cache's plain-memory state and starts tracking
// the touches the next restore must rewind.
func (c *Cache) CaptureAux() *AuxSnapshot {
	s := &AuxSnapshot{
		c:          c,
		lastUse:    make([][]uint64, len(c.lastUse)),
		useTick:    c.useTick,
		enabled:    c.enabled,
		lockedWays: append([]bool(nil), c.lockedWays...),
		stats:      c.stats,
	}
	for w := range c.lastUse {
		s.lastUse[w] = append([]uint64(nil), c.lastUse[w]...)
	}
	c.track(s)
	c.syncGen = c.arraysGen()
	return s
}

// RestoreAux rewinds the cache's plain-memory state to the captured
// values, drops the way memo, and bumps the content generation if the
// enable bit or any of the cache's arrays moved.
func (c *Cache) RestoreAux(s *AuxSnapshot) {
	if s.c != c {
		panic("cache: RestoreAux onto a different cache")
	}
	if c.enabled != s.enabled || c.arraysGen() != c.syncGen {
		c.contentGen++
	}
	if c.snapOwner == s {
		for _, i := range c.touched {
			w, set := int(i)/c.sets, int(i)%c.sets
			c.lastUse[w][set] = s.lastUse[w][set]
		}
	} else {
		for w := range c.lastUse {
			copy(c.lastUse[w], s.lastUse[w])
		}
	}
	c.track(s)
	c.useTick = s.useTick
	c.enabled = s.enabled
	copy(c.lockedWays, s.lockedWays)
	c.stats = s.stats
	c.memoWay = -1
	c.syncGen = c.arraysGen()
}

// arraysGen sums the generations of the cache's arrays. Each is
// monotonic, so the sum moves exactly when one of them does.
func (c *Cache) arraysGen() uint64 {
	g := c.tagRAM.Gen()
	for _, a := range c.dataRAM {
		g += a.Gen()
	}
	return g
}

// track makes s the snapshot whose restore rewinds the touched log, and
// empties the log. Every entry is at or below s's tick at this point.
// The log's capacity is one slot per entry, and each entry is logged at
// most once per capture or restore, so touch never grows it.
func (c *Cache) track(s *AuxSnapshot) {
	if c.touched == nil {
		c.touched = make([]int32, 0, c.cfg.Ways*c.sets)
	}
	c.touched = c.touched[:0]
	c.snapOwner = s
	c.snapFloor = s.useTick + 1
}
