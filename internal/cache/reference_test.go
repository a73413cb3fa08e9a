package cache

import (
	"autorfm/internal/clk"
	"autorfm/internal/event"
	"autorfm/internal/memctrl"
)

// refCache is the structure-of-arrays LLC this package shipped before the
// per-set block layout, kept as an executable specification: one flat tag
// array, parallel LRU-stamp and dirty arrays, and the same replacement,
// merging, prefetch and warm logic line for line. The outstanding-fill
// table and the stream detector's recency set are Go maps here, which
// TestMSHRTableMatchesMap and TestLineSetMatchesMap pin as equivalent to
// the open-addressed tables. The differential test drives it and Cache
// with identical streams and asserts identical observable behaviour.
type refCache struct {
	cfg     Config
	tags    []uint64
	lru     []uint64
	dirty   []bool
	ways    int
	setMask uint64
	mc      *memctrl.Controller
	q       *event.Queue
	tick    uint64
	out     map[uint64]*refMSHR

	recent     map[uint64]struct{}
	recentRing [recentCap]uint64
	recentHead int
	recentN    int

	Stats Stats
}

type refMSHR struct {
	c       *refCache
	line    uint64
	dirty   bool
	waiters []func(clk.Tick)
	req     memctrl.Request
}

type refSnapshot struct {
	tags, lru []uint64
	dirty     []bool
	tick      uint64
}

func newRefCache(cfg Config, mc *memctrl.Controller, q *event.Queue) *refCache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	tags := make([]uint64, numSets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &refCache{
		cfg:     cfg,
		tags:    tags,
		lru:     make([]uint64, numSets*cfg.Ways),
		dirty:   make([]bool, numSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		mc:      mc,
		q:       q,
		out:     map[uint64]*refMSHR{},
		recent:  map[uint64]struct{}{},
	}
}

func (c *refCache) newMSHR(line uint64, dirty bool) *refMSHR {
	m := &refMSHR{c: c, line: line, dirty: dirty}
	m.req.Line = line
	m.req.Done = func(now clk.Tick) { m.c.fill(m, now) }
	return m
}

func (c *refCache) noteMiss(line uint64) bool {
	_, a := c.recent[line-1]
	_, b := c.recent[line-2]
	c.recent[line] = struct{}{}
	if c.recentN == recentCap {
		delete(c.recent, c.recentRing[c.recentHead])
		c.recentRing[c.recentHead] = line
		c.recentHead = (c.recentHead + 1) % recentCap
	} else {
		c.recentRing[(c.recentHead+c.recentN)%recentCap] = line
		c.recentN++
	}
	return a || b
}

func (c *refCache) prefetch(line uint64) {
	page := line / linesPerPage
	for d := 1; d <= c.cfg.PrefetchDegree; d++ {
		pl := line + uint64(d)
		if pl/linesPerPage != page {
			return
		}
		if c.out[pl] != nil || c.lookup(pl) {
			continue
		}
		m := c.newMSHR(pl, false)
		c.out[pl] = m
		c.Stats.Prefetches++
		c.mc.Submit(&m.req)
	}
}

func (c *refCache) lookup(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	for _, tg := range c.tags[base : base+c.ways] {
		if tg == line {
			return true
		}
	}
	return false
}

func (c *refCache) Warm(line uint64, dirty bool) {
	base := int(line&c.setMask) * c.ways
	c.tick++
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

func (c *refCache) Reset(mc *memctrl.Controller) {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.lru[i] = 0
		c.dirty[i] = false
	}
	c.tick = 0
	c.rebind(mc)
}

func (c *refCache) Snapshot() refSnapshot {
	return refSnapshot{
		tags:  append([]uint64(nil), c.tags...),
		lru:   append([]uint64(nil), c.lru...),
		dirty: append([]bool(nil), c.dirty...),
		tick:  c.tick,
	}
}

func (c *refCache) Restore(s refSnapshot, mc *memctrl.Controller) {
	copy(c.tags, s.tags)
	copy(c.lru, s.lru)
	copy(c.dirty, s.dirty)
	c.tick = s.tick
	c.rebind(mc)
}

func (c *refCache) rebind(mc *memctrl.Controller) {
	c.mc = mc
	clear(c.out)
	clear(c.recent)
	c.recentHead, c.recentN = 0, 0
	c.Stats = Stats{}
}

func (c *refCache) Occupancy() int {
	n := 0
	for _, tg := range c.tags {
		if tg != invalidTag {
			n++
		}
	}
	return n
}

func (c *refCache) Access(line uint64, write bool, done func(clk.Tick)) {
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
	if m := c.out[line]; m != nil {
		c.Stats.Merged++
		if write {
			m.dirty = true
		}
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		return
	}
	m := c.newMSHR(line, write)
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.out[line] = m
	c.mc.Submit(&m.req)
	if c.cfg.PrefetchDegree > 0 && c.noteMiss(line) {
		c.prefetch(line)
	}
}

func (c *refCache) fill(m *refMSHR, now clk.Tick) {
	line := m.line
	delete(c.out, line)
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
}
