package cache

import (
	"autorfm/internal/clk"
	"autorfm/internal/event"
	"autorfm/internal/memctrl"
)

// Config sizes the cache.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency clk.Tick
	// MissExtra is the fixed on-chip cost a miss pays beyond the DRAM
	// access itself: interconnect traversal, MC frontend, and fill-to-use
	// forwarding. It sets the loaded base latency the slowdown figures are
	// relative to.
	MissExtra clk.Tick
	// PrefetchDegree enables a next-line stream prefetcher: when a demand
	// miss extends a detected ascending stream, the next PrefetchDegree
	// lines of the same 4KB page are fetched. Stream prefetching is what
	// makes page-buddy lines arrive at DRAM close together in time — the
	// mechanism behind the Zen-mapping subarray conflicts of Fig 8.
	// 0 disables.
	PrefetchDegree int
}

// DefaultConfig returns the Table IV LLC: 8MB, 16-way, 64B lines, with a
// 12ns hit latency typical of a large shared LLC.
func DefaultConfig() Config {
	return Config{
		SizeBytes:      8 << 20,
		Ways:           16,
		LineBytes:      64,
		HitLatency:     clk.NS(12),
		MissExtra:      clk.NS(35),
		PrefetchDegree: 40,
	}
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses uint64
	Writebacks   uint64
	Merged       uint64 // misses merged into an outstanding fill
	Prefetches   uint64 // prefetch fills issued to DRAM
}

// invalidTag marks an empty way slot. Real line addresses are physical
// footprint offsets, far below the sentinel.
const invalidTag = ^uint64(0)

// mshr is one outstanding fill: the merged waiters, the DRAM request it
// rides on, and the fill continuation. MSHRs are pooled; the request's
// Done callback is bound once at creation and re-armed by resetting line,
// so a steady-state miss allocates nothing.
type mshr struct {
	c       *Cache
	line    uint64
	dirty   bool // a write was merged while the fill was outstanding
	waiters []func(clk.Tick)
	req     memctrl.Request
	next    *mshr // free-list link
}

// Cache is a shared, single-ported (contention-free) LLC model.
//
// Way state is stored one contiguous block per set: the set's tags (16
// ways x 8B, two host cache lines), scanned on every access, followed
// directly by its way states (LRU stamp and dirty bit), which a hit updates
// and a fill's victim scan reads. Everything an access or a fill touches is
// thus four adjacent host lines, not lines in three arrays megabytes apart.
type Cache struct {
	cfg Config
	// sets holds 2*ways words per set: the ways' line addresses
	// (invalidTag when empty), then their states (see wayState).
	sets    []uint64
	ways    int
	setMask uint64
	mc      *memctrl.Controller
	q       *event.Queue
	tick    uint64
	out     mshrTable
	freeM   *mshr

	// Stream-detector state: the set of recent demand-miss lines, bounded
	// by a FIFO ring. A miss to L with L-1 or L-2 recently missed is
	// treated as part of an ascending stream.
	recent     lineSet
	recentRing [recentCap]uint64
	recentHead int // oldest entry, valid when recentN > 0
	recentN    int

	Stats Stats
}

// New builds the cache in front of mc.
func New(cfg Config, mc *memctrl.Controller, q *event.Queue) *Cache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if numSets&(numSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	c := &Cache{
		cfg:     cfg,
		sets:    make([]uint64, 2*numSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		mc:      mc,
		q:       q,
	}
	c.clearWays()
	return c
}

// set returns line's set: its ways' tags and states, the two halves of one
// contiguous block.
func (c *Cache) set(line uint64) (tags, state []uint64) {
	base := 2 * c.ways * int(line&c.setMask)
	blk := c.sets[base : base+2*c.ways : base+2*c.ways]
	return blk[:c.ways:c.ways], blk[c.ways:]
}

// wayState packs a valid way's LRU stamp and dirty bit into one word: the
// stamp shifted left one bit, dirty in bit 0. Every install and hit takes a
// fresh stamp from the cache's clock, so no two valid ways share one, and
// comparing state words orders ways exactly as comparing stamps does. An
// empty way's state is 0, below every valid way's.
func wayState(tick uint64, dirty bool) uint64 {
	if dirty {
		return tick<<1 | 1
	}
	return tick << 1
}

// clearWays empties every way: invalid tags, zero states.
func (c *Cache) clearWays() {
	for s := 0; s < len(c.sets); s += 2 * c.ways {
		blk := c.sets[s : s+2*c.ways]
		for i := range blk[:c.ways] {
			blk[i] = invalidTag
		}
		clear(blk[c.ways:])
	}
}

const (
	linesPerPage = 64 // 4KB page / 64B line
	recentCap    = 512
)

// getMSHR takes an MSHR from the free list, binding its fill callback on
// first creation.
func (c *Cache) getMSHR(line uint64, dirty bool) *mshr {
	m := c.freeM
	if m == nil {
		m = &mshr{c: c}
		m.req.Done = func(now clk.Tick) { m.c.fill(m, now) }
	} else {
		c.freeM = m.next
		m.next = nil
	}
	m.line, m.dirty = line, dirty
	m.req.Line, m.req.Write = line, false
	return m
}

// putMSHR returns an MSHR to the free list. The waiters slice keeps its
// capacity (cleared to length 0 by fill), so merges re-use it.
func (c *Cache) putMSHR(m *mshr) {
	m.next = c.freeM
	c.freeM = m
}

// noteMiss records a demand miss for stream detection and reports whether
// the miss extends an ascending stream. The recency window is a FIFO over
// the last recentCap demand misses; insertion precedes eviction, matching
// the pre-ring slice semantics (append, then drop the front past cap) so
// duplicate misses age out on their oldest entry.
func (c *Cache) noteMiss(line uint64) bool {
	a := c.recent.has(line - 1)
	b := c.recent.has(line - 2)
	c.recent.add(line)
	if c.recentN == recentCap {
		old := c.recentRing[c.recentHead]
		c.recent.del(old)
		c.recentRing[c.recentHead] = line // the evicted slot becomes the newest
		c.recentHead = (c.recentHead + 1) % recentCap
	} else {
		c.recentRing[(c.recentHead+c.recentN)%recentCap] = line
		c.recentN++
	}
	return a || b
}

// prefetch fetches the next-degree lines of line's page that are neither
// cached nor outstanding. Prefetch fills install clean and wake no one.
func (c *Cache) prefetch(line uint64) {
	page := line / linesPerPage
	for d := 1; d <= c.cfg.PrefetchDegree; d++ {
		pl := line + uint64(d)
		if pl/linesPerPage != page {
			return // stream prefetchers stop at the page boundary
		}
		if c.out.get(pl) != nil {
			continue
		}
		if c.lookup(pl) {
			continue
		}
		m := c.getMSHR(pl, false)
		c.out.put(m)
		c.Stats.Prefetches++
		c.mc.Submit(&m.req)
	}
}

// lookup reports whether line is present, without touching LRU state.
func (c *Cache) lookup(line uint64) bool {
	tags, _ := c.set(line)
	for _, tg := range tags {
		if tg == line {
			return true
		}
	}
	return false
}

// Warm installs a line without any DRAM traffic, for pre-populating the
// cache to its steady-state occupancy before measurement (short simulation
// slices would otherwise see no capacity evictions and no writebacks).
func (c *Cache) Warm(line uint64, dirty bool) {
	tags, state := c.set(line)
	c.tick++
	// One pass: stop at the first free way or duplicate (in way order, as
	// installation always has), tracking the LRU victim for the full-set
	// case along the way. Warming touches every line slot of the cache, so
	// this scan is the dominant cost of prewarm.
	victim := 0
	for i, tg := range tags {
		if tg == invalidTag || tg == line {
			victim = i
			break
		}
		if state[i] < state[victim] {
			victim = i
		}
	}
	tags[victim] = line
	state[victim] = wayState(c.tick, dirty)
}

// Reset empties the cache and rebinds it to mc (typically a freshly built
// controller on the same event queue), keeping the way arrays and the
// MSHR pool so a reused machine starts its next run without reallocating.
// MSHRs still outstanding when the previous run ended (in-flight prefetch
// fills cut short by run completion) are reclaimed into the free list —
// their DRAM requests died with the previous controller.
func (c *Cache) Reset(mc *memctrl.Controller) {
	c.clearWays()
	c.tick = 0
	c.rebind(mc)
}

// Snapshot is a copy of a cache's way state: tags, LRU stamps, dirty bits
// and the LRU clock. It holds no MSHR, stream-detector or stats state.
type Snapshot struct {
	sets []uint64
	tick uint64
}

// Snapshot copies the cache's way state, for Restore to load back into this
// or any other cache of the same geometry.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{sets: append([]uint64(nil), c.sets...), tick: c.tick}
}

// Restore loads s into the cache and rebinds it to mc: the way state is
// copied back, and the MSHRs, stream detector and stats are reset as Reset
// resets them. A snapshot of a freshly warmed cache therefore restores
// exactly the state Reset followed by the same Warm calls builds. It
// allocates nothing.
func (c *Cache) Restore(s Snapshot, mc *memctrl.Controller) {
	if len(s.sets) != len(c.sets) {
		panic("cache: snapshot size differs from the cache")
	}
	copy(c.sets, s.sets)
	c.tick = s.tick
	c.rebind(mc)
}

// rebind attaches the cache to mc and drops all per-run state other than
// the way arrays: outstanding MSHRs, the stream detector and the stats.
func (c *Cache) rebind(mc *memctrl.Controller) {
	c.mc = mc
	c.out.drain(func(m *mshr) {
		m.waiters = m.waiters[:0]
		m.dirty = false
		c.putMSHR(m)
	})
	c.recent.clear()
	c.recentHead, c.recentN = 0, 0
	c.Stats = Stats{}
}

// Occupancy returns the number of valid lines currently installed. It is a
// full scan intended for tests and warm-up verification, not hot paths.
func (c *Cache) Occupancy() int {
	n := 0
	for s := 0; s < len(c.sets); s += 2 * c.ways {
		for _, tg := range c.sets[s : s+c.ways] {
			if tg != invalidTag {
				n++
			}
		}
	}
	return n
}

// Access performs one 64B access at the current simulation time. For loads,
// done is invoked when the data is available (hit latency or DRAM fill);
// stores may pass nil (they retire from a store buffer).
func (c *Cache) Access(line uint64, write bool, done func(clk.Tick)) {
	tags, state := c.set(line)
	c.tick++
	for i, tg := range tags {
		if tg == line {
			c.Stats.Hits++
			state[i] = wayState(c.tick, write || state[i]&1 != 0)
			if done != nil {
				c.q.After(c.cfg.HitLatency, done)
			}
			return
		}
	}
	c.Stats.Misses++

	// Merge with an outstanding fill for the same line.
	if m := c.out.get(line); m != nil {
		c.Stats.Merged++
		if write {
			m.dirty = true
		}
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		return
	}

	m := c.getMSHR(line, write)
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.out.put(m)
	c.mc.Submit(&m.req)
	if c.cfg.PrefetchDegree > 0 && c.noteMiss(line) {
		c.prefetch(line)
	}
}

// fill installs the returned line, evicting LRU (writing back if dirty) and
// waking all merged waiters, then recycles the MSHR.
func (c *Cache) fill(m *mshr, now clk.Tick) {
	line := m.line
	c.out.del(line)

	tags, state := c.set(line)
	state = state[:len(tags)]
	victim := 0
	for i := 1; i < len(tags); i++ {
		if tags[i] == invalidTag {
			victim = i
			break
		}
		if state[i] < state[victim] {
			victim = i
		}
	}
	if tags[victim] != invalidTag && state[victim]&1 != 0 {
		c.Stats.Writebacks++
		c.mc.SubmitWrite(tags[victim])
	}
	c.tick++
	tags[victim] = line
	state[victim] = wayState(c.tick, m.dirty)

	for _, w := range m.waiters {
		if c.cfg.MissExtra > 0 {
			c.q.After(c.cfg.MissExtra, w)
		} else {
			w(now)
		}
	}
	m.waiters = m.waiters[:0]
	c.putMSHR(m)
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}
