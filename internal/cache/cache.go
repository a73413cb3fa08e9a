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
// Way state is stored structure-of-arrays: one flat contiguous tag array
// (16 ways x 8B = two cache lines per set) scanned on every access, with
// the LRU stamps and dirty bits in parallel arrays touched only on hit or
// fill. Keeping the scanned bytes minimal and indexable without pointer
// chasing is worth ~2x on the hit path over the former []way-per-set
// layout.
type Cache struct {
	cfg     Config
	tags    []uint64 // line address per way slot, invalidTag when empty
	lru     []uint64
	dirty   []bool
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
	tags := make([]uint64, numSets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:     cfg,
		tags:    tags,
		lru:     make([]uint64, numSets*cfg.Ways),
		dirty:   make([]bool, numSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		mc:      mc,
		q:       q,
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
	base := int(line&c.setMask) * c.ways
	for _, tg := range c.tags[base : base+c.ways] {
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
	base := int(line&c.setMask) * c.ways
	c.tick++
	// One pass: stop at the first free way or duplicate (in way order, as
	// installation always has), tracking the LRU victim for the full-set
	// case along the way. Warming touches every line slot of the cache, so
	// this scan is the dominant cost of prewarm.
	victim := base
	for i := base; i < base+c.ways; i++ {
		if tg := c.tags[i]; tg == invalidTag || tg == line {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = line
	c.lru[victim] = c.tick
	c.dirty[victim] = dirty
}

// Reset empties the cache and rebinds it to mc (typically a freshly built
// controller on the same event queue), keeping the big SoA arrays and the
// MSHR pool so a reused machine starts its next run without reallocating.
// MSHRs still outstanding when the previous run ended (in-flight prefetch
// fills cut short by run completion) are reclaimed into the free list —
// their DRAM requests died with the previous controller.
func (c *Cache) Reset(mc *memctrl.Controller) {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.lru[i] = 0
		c.dirty[i] = false
	}
	c.tick = 0
	c.rebind(mc)
}

// Snapshot is a copy of a cache's way state: tags, LRU stamps, dirty bits
// and the LRU clock. It holds no MSHR, stream-detector or stats state.
type Snapshot struct {
	tags  []uint64
	lru   []uint64
	dirty []bool
	tick  uint64
}

// Snapshot copies the cache's way state, for Restore to load back into this
// or any other cache of the same geometry.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{
		tags:  append([]uint64(nil), c.tags...),
		lru:   append([]uint64(nil), c.lru...),
		dirty: append([]bool(nil), c.dirty...),
		tick:  c.tick,
	}
}

// Restore loads s into the cache and rebinds it to mc: the way state is
// copied back, and the MSHRs, stream detector and stats are reset as Reset
// resets them. A snapshot of a freshly warmed cache therefore restores
// exactly the state Reset followed by the same Warm calls builds. It
// allocates nothing.
func (c *Cache) Restore(s Snapshot, mc *memctrl.Controller) {
	if len(s.tags) != len(c.tags) {
		panic("cache: snapshot size differs from the cache")
	}
	copy(c.tags, s.tags)
	copy(c.lru, s.lru)
	copy(c.dirty, s.dirty)
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
	for _, tg := range c.tags {
		if tg != invalidTag {
			n++
		}
	}
	return n
}

// Access performs one 64B access at the current simulation time. For loads,
// done is invoked when the data is available (hit latency or DRAM fill);
// stores may pass nil (they retire from a store buffer).
func (c *Cache) Access(line uint64, write bool, done func(clk.Tick)) {
	base := int(line&c.setMask) * c.ways
	c.tick++
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == line {
			c.Stats.Hits++
			c.lru[base+i] = c.tick
			if write {
				c.dirty[base+i] = true
			}
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

	base := int(line&c.setMask) * c.ways
	victim := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	if c.tags[victim] != invalidTag && c.dirty[victim] {
		c.Stats.Writebacks++
		c.mc.SubmitWrite(c.tags[victim])
	}
	c.tick++
	c.tags[victim] = line
	c.lru[victim] = c.tick
	c.dirty[victim] = m.dirty

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
