package cache

import (
	"reflect"
	"testing"

	"autorfm/internal/rng"
)

// warmState captures everything Warm touches, for byte-level comparison.
func warmState(c *Cache) ([]uint64, []uint64, []bool, uint64) {
	tags := append([]uint64(nil), c.tags...)
	lru := append([]uint64(nil), c.lru...)
	dirty := append([]bool(nil), c.dirty...)
	return tags, lru, dirty, c.tick
}

// TestResetMatchesFresh pins the machine-reuse contract for the cache: a
// used-then-Reset cache behaves identically to a new one.
func TestResetMatchesFresh(t *testing.T) {
	used, mc, q := newRig(t, smallCfg())
	for i := uint64(0); i < 3000; i++ {
		used.Access(i%512, i%3 == 0, nil)
	}
	drain(q, mc)
	used.Reset(mc)

	fresh, _, _ := newRig(t, smallCfg())
	uTags, uLRU, uDirty, uTick := warmState(used)
	fTags, fLRU, fDirty, fTick := warmState(fresh)
	if !reflect.DeepEqual(uTags, fTags) || !reflect.DeepEqual(uLRU, fLRU) ||
		!reflect.DeepEqual(uDirty, fDirty) || uTick != fTick {
		t.Fatal("Reset cache arrays differ from a fresh cache")
	}
	if used.Stats != (Stats{}) {
		t.Fatalf("Reset left stats %+v", used.Stats)
	}
	if used.out.n != 0 || used.recentN != 0 {
		t.Fatal("Reset left outstanding-fill or stream-detector state")
	}
	for _, v := range used.recent.slots {
		if v != 0 {
			t.Fatal("Reset left stream-detector set entries")
		}
	}
}

// warmRandom warms n random lines into c from seed, 30% of them dirty.
func warmRandom(c *Cache, n int, seed uint64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		c.Warm(uint64(r.Int63n(1<<20)), r.Bernoulli(0.3))
	}
}

// TestRestoreMatchesWarm pins the snapshot contract: a cache that was
// warmed, snapshotted, then used — hits, misses, fills, writebacks, stream
// prefetches, and fills still outstanding — and Restored holds exactly the
// state of a freshly warmed cache: way arrays, LRU clock, zero stats, no
// outstanding MSHRs and an empty stream detector.
func TestRestoreMatchesWarm(t *testing.T) {
	cfg := smallCfg()
	cfg.PrefetchDegree = 4
	lines := cfg.SizeBytes / cfg.LineBytes
	used, mc, q := newRig(t, cfg)
	warmRandom(used, lines, 5)
	snap := used.Snapshot()

	r := rng.New(6)
	for i := 0; i < 3000; i++ {
		used.Access(uint64(r.Int63n(1<<20)), i%3 == 0, nil)
		used.Access(uint64(i), false, nil) // an ascending stream
		// Drain halfway through each hundred, so the last 49 iterations' fills
		// stay outstanding.
		if i%100 == 50 {
			drain(q, mc)
		}
	}
	if used.out.n == 0 || used.recentN == 0 || used.Stats.Writebacks == 0 || used.Stats.Prefetches == 0 {
		t.Fatalf("mutation left no outstanding fills, stream or writebacks: out %d, recent %d, %+v",
			used.out.n, used.recentN, used.Stats)
	}
	used.Restore(snap, mc)

	fresh, _, _ := newRig(t, cfg)
	warmRandom(fresh, lines, 5)
	uTags, uLRU, uDirty, uTick := warmState(used)
	fTags, fLRU, fDirty, fTick := warmState(fresh)
	if !reflect.DeepEqual(uTags, fTags) || !reflect.DeepEqual(uLRU, fLRU) ||
		!reflect.DeepEqual(uDirty, fDirty) || uTick != fTick {
		t.Fatal("Restored cache arrays differ from a freshly warmed cache")
	}
	if used.Stats != (Stats{}) {
		t.Fatalf("Restore left stats %+v", used.Stats)
	}
	if used.out.n != 0 || used.recentN != 0 || used.recentHead != 0 {
		t.Fatal("Restore left outstanding-fill or stream-detector state")
	}
	for _, v := range used.recent.slots {
		if v != 0 {
			t.Fatal("Restore left stream-detector set entries")
		}
	}
}

// TestRestoreZeroAllocs guards the restore path: it copies into the
// cache's own arrays and allocates nothing.
func TestRestoreZeroAllocs(t *testing.T) {
	c, mc, _ := newRig(t, smallCfg())
	warmRandom(c, 1000, 5)
	snap := c.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { c.Restore(snap, mc) }); allocs != 0 {
		t.Fatalf("Restore allocates %.1f times per call", allocs)
	}
}

// BenchmarkWarm times the serial per-entry warm loop at the default LLC
// geometry: the work sim's prewarm does for a run whose warm state its
// machine holds no snapshot of.
func BenchmarkWarm(b *testing.B) {
	cfg := DefaultConfig()
	total := cfg.SizeBytes / cfg.LineBytes
	r := rng.New(1)
	lines := make([]uint64, total)
	dirty := make([]bool, total)
	for i := range lines {
		lines[i] = uint64(r.Int63n(1 << 30))
		dirty[i] = r.Bernoulli(0.3)
	}
	c, mc, _ := newRig(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(mc)
		for j, line := range lines {
			c.Warm(line, dirty[j])
		}
	}
}

// BenchmarkRestore times restoring a warmed snapshot of the default LLC:
// what a reused machine does instead of BenchmarkWarm's loop once it holds
// a snapshot of the run's warm state.
func BenchmarkRestore(b *testing.B) {
	cfg := DefaultConfig()
	c, mc, _ := newRig(b, cfg)
	warmRandom(c, cfg.SizeBytes/cfg.LineBytes, 1)
	snap := c.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Restore(snap, mc)
	}
}
