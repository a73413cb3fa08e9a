package cache

import (
	"fmt"
	"slices"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/mapping"
	"autorfm/internal/memctrl"
	"autorfm/internal/rng"
)

// recMapper records the line of every request its controller admits into
// whichever list dst points at: diffCaches points it at reads while it
// calls Access (demand fills and prefetches are submitted there) and at
// writebacks while it steps the queue (fills, which evict, run there).
type recMapper struct {
	mapping.Mapper
	dst *[]uint64
}

func (m *recMapper) Map(line uint64) mapping.Location {
	*m.dst = append(*m.dst, line)
	return m.Mapper.Map(line)
}

// wake is one load waiter's completion: the access that asked, and when.
type wake struct {
	id int
	at clk.Tick
}

// diffSide is one cache under differential test with its own queue and
// controller, plus everything observable it produced.
type diffSide struct {
	q                 *event.Queue
	rec               *recMapper
	mc                *memctrl.Controller
	reads, writebacks []uint64
	wakes             []wake
}

func newDiffSide() *diffSide {
	s := &diffSide{q: &event.Queue{}}
	s.rec = &recMapper{Mapper: mapping.NewZen(mapping.Default())}
	s.rec.dst = &s.reads
	s.rebuild()
	return s
}

// rebuild starts a fresh run the way a reused machine does: the queue is
// reset, so fills still outstanding die with the old controller, and a new
// controller is built for the cache to rebind to.
func (s *diffSide) rebuild() {
	s.q.Reset()
	dev := dram.NewDevice(dram.Config{Geo: mapping.Default(), Timing: clk.DDR5(), Mode: dram.ModeNone, Seed: 1})
	s.mc = memctrl.New(memctrl.Config{Timing: clk.DDR5(), Mapper: s.rec}, dev, s.q)
}

// step dispatches n events, or with n < 0 every event up to the point where
// only the recurring REF remains.
func (s *diffSide) step(n int) {
	s.rec.dst = &s.writebacks
	if n < 0 {
		drain(s.q, s.mc)
	}
	for i := 0; i < n && s.q.Step(); i++ {
	}
	s.rec.dst = &s.reads
}

func (s *diffSide) waiter(id int) func(clk.Tick) {
	return func(now clk.Tick) { s.wakes = append(s.wakes, wake{id, now}) }
}

// TestCacheMatchesReference drives Cache and the structure-of-arrays
// refCache with identical random streams of loads, stores, warms, queue
// steps, snapshots, restores and resets, at 1, 2, 4 and 16 ways, with and
// without the stream prefetcher and the miss-extra delay. After every
// operation the stats must agree; at every queue step so must the lines
// submitted to DRAM (demand fills and prefetches, and separately the
// writebacks, in order), the waiter wake times, and the way state itself.
func TestCacheMatchesReference(t *testing.T) {
	var total Stats
	for _, ways := range []int{1, 2, 4, 16} {
		for seed := uint64(1); seed <= 12; seed++ {
			r := rng.New(seed*100 + uint64(ways))
			sets := 8 << r.Intn(3)
			cfg := Config{
				SizeBytes:  sets * ways * 64,
				Ways:       ways,
				LineBytes:  64,
				HitLatency: clk.NS(12),
			}
			if r.Bernoulli(0.5) {
				cfg.PrefetchDegree = 1 + r.Intn(8)
			}
			if r.Bernoulli(0.5) {
				cfg.MissExtra = clk.NS(35)
			}
			where := fmt.Sprintf("ways %d seed %d (%+v)", ways, seed, cfg)
			diffCaches(t, where, cfg, r, 4000, &total)
		}
	}
	if total.Hits == 0 || total.Merged == 0 || total.Writebacks == 0 || total.Prefetches == 0 {
		t.Fatalf("streams left a path unexercised: %+v", total)
	}
}

// diffCaches runs one stream of ops operations and adds the cache's stats,
// which Reset and Restore zero, to total as it goes.
func diffCaches(t *testing.T, where string, cfg Config, r *rng.Source, ops int, total *Stats) {
	t.Helper()
	a, b := newDiffSide(), newDiffSide()
	c := New(cfg, a.mc, a.q)
	ref := newRefCache(cfg, b.mc, b.q)
	var snap Snapshot
	var refSnap refSnapshot
	held := false
	hot := uint64(3 * cfg.SizeBytes / cfg.LineBytes) // lines contending for the sets
	stream := uint64(1 << 20)
	steps, restores, resets := 0, 0, 0
	tally := func() {
		s := c.Stats
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Writebacks += s.Writebacks
		total.Merged += s.Merged
		total.Prefetches += s.Prefetches
	}
	for op := 0; op < ops; op++ {
		switch k := r.Intn(100); {
		case k < 60:
			var line uint64
			switch m := r.Intn(10); {
			case m < 7:
				line = uint64(r.Int63n(int64(hot)))
			case m < 9:
				line = stream // an ascending run feeds the prefetcher
				stream++
			default:
				line = uint64(r.Int63n(1 << 30))
			}
			write := r.Bernoulli(0.3)
			if write {
				c.Access(line, true, nil)
				ref.Access(line, true, nil)
			} else {
				c.Access(line, false, a.waiter(op))
				ref.Access(line, false, b.waiter(op))
			}
		case k < 70:
			line, dirty := uint64(r.Int63n(int64(hot))), r.Bernoulli(0.3)
			c.Warm(line, dirty)
			ref.Warm(line, dirty)
		case k < 95:
			n := 1 + r.Intn(30)
			a.step(n)
			b.step(n)
			steps++
			sameObservables(t, fmt.Sprintf("%s op %d", where, op), c, ref, a, b)
		case k < 97:
			snap, refSnap, held = c.Snapshot(), ref.Snapshot(), true
		case k < 99:
			if !held {
				continue
			}
			tally()
			a.rebuild()
			b.rebuild()
			c.Restore(snap, a.mc)
			ref.Restore(refSnap, b.mc)
			restores++
		default:
			tally()
			a.rebuild()
			b.rebuild()
			c.Reset(a.mc)
			ref.Reset(b.mc)
			resets++
		}
		if c.Stats != ref.Stats {
			t.Fatalf("%s op %d: stats %+v, reference %+v", where, op, c.Stats, ref.Stats)
		}
	}
	a.step(-1)
	b.step(-1)
	sameObservables(t, where+" drained", c, ref, a, b)
	tally()
	if steps == 0 || restores+resets == 0 {
		t.Fatalf("%s: stream had %d steps, %d restores, %d resets", where, steps, restores, resets)
	}
}

// sameObservables compares everything the two caches have produced so far,
// and their way state: tags, dirty bits and the LRU order of each set.
func sameObservables(t *testing.T, where string, c *Cache, ref *refCache, a, b *diffSide) {
	t.Helper()
	if !slices.Equal(a.reads, b.reads) {
		t.Fatalf("%s: DRAM reads differ: %d vs reference %d lines", where, len(a.reads), len(b.reads))
	}
	if !slices.Equal(a.writebacks, b.writebacks) {
		t.Fatalf("%s: writebacks %v, reference %v", where, a.writebacks, b.writebacks)
	}
	if !slices.Equal(a.wakes, b.wakes) {
		t.Fatalf("%s: waiter wakes differ: %d vs reference %d", where, len(a.wakes), len(b.wakes))
	}
	if c.tick != ref.tick || c.Occupancy() != ref.Occupancy() {
		t.Fatalf("%s: tick %d occupancy %d, reference %d %d", where, c.tick, c.Occupancy(), ref.tick, ref.Occupancy())
	}
	for set := 0; set <= int(c.setMask); set++ {
		tags, state := c.set(uint64(set))
		for i := range tags {
			j := set*ref.ways + i
			if tags[i] != ref.tags[j] || state[i]>>1 != ref.lru[j] || (state[i]&1 != 0) != ref.dirty[j] {
				t.Fatalf("%s: set %d way %d holds (%#x, stamp %d, state %#x), reference (%#x, stamp %d, dirty %v)",
					where, set, i, tags[i], state[i]>>1, state[i], ref.tags[j], ref.lru[j], ref.dirty[j])
			}
		}
	}
}
