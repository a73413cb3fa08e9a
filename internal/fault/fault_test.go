package fault

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// countingTracker records what reaches it, so tests can observe exactly
// which faults the wrapper injected.
type countingTracker struct {
	rows []uint32
	sels int
}

func (c *countingTracker) Name() string            { return "counting" }
func (c *countingTracker) OnActivation(row uint32) { c.rows = append(c.rows, row) }
func (c *countingTracker) Reset()                  { c.rows, c.sels = nil, 0 }
func (c *countingTracker) SelectForMitigation() tracker.Selection {
	c.sels++
	return tracker.Selection{Row: uint32(c.sels), Level: 1, OK: true}
}

func TestValidate(t *testing.T) {
	good := []Config{{}, {ActMissProb: 1}, {ChaosProb: 0.5}, {PanicAfterActs: 3}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{ActMissProb: -0.1},
		{TrackerBitFlipProb: 1.5},
		{DropMitigationProb: math.NaN()},
		{DelayMitigationProb: math.Inf(1)},
		{ChaosProb: 2},
		{PanicAfterActs: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
}

func TestWrapInactiveIsIdentity(t *testing.T) {
	inner := &countingTracker{}
	if got := WrapTracker(inner, Config{ChaosProb: 0.5}, rng.New(1)); got != inner {
		t.Fatal("inactive config wrapped the tracker")
	}
}

func TestActMissDropsObservations(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{ActMissProb: 0.5, Seed: 1}, rng.New(1))
	const n = 10_000
	for i := 0; i < n; i++ {
		trk.OnActivation(uint32(i))
	}
	got := len(inner.rows)
	if got < n*4/10 || got > n*6/10 {
		t.Fatalf("inner saw %d of %d activations, want ≈50%%", got, n)
	}
}

func TestBitFlipCorruptsOneBit(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{TrackerBitFlipProb: 1}, rng.New(2))
	const row = 0x2a
	flips := 0
	for i := 0; i < 1000; i++ {
		trk.OnActivation(row)
	}
	for _, got := range inner.rows {
		diff := got ^ row
		if diff == 0 {
			t.Fatal("row passed through unflipped at probability 1")
		}
		if diff&(diff-1) != 0 {
			t.Fatalf("row %#x differs from %#x by more than one bit", got, row)
		}
		flips++
	}
	if flips != 1000 {
		t.Fatalf("inner saw %d activations, want 1000", flips)
	}
}

func TestDropLosesSelections(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{DropMitigationProb: 1}, rng.New(3))
	for i := 0; i < 10; i++ {
		if sel := trk.SelectForMitigation(); sel.OK {
			t.Fatal("selection survived a 100% drop probability")
		}
	}
	if inner.sels != 10 {
		t.Fatalf("inner selected %d times, want 10 (state advances even when dropped)", inner.sels)
	}
}

func TestDelayDefersByOneSlot(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{DelayMitigationProb: 1}, rng.New(4))
	// Slot 1: nomination 1 is stashed, nothing (no prior stash) is served.
	if sel := trk.SelectForMitigation(); sel.OK {
		t.Fatalf("first delayed slot served %+v", sel)
	}
	// Slot 2: nomination 2 is stashed, nomination 1 is served one slot late.
	sel := trk.SelectForMitigation()
	if !sel.OK || sel.Row != 1 {
		t.Fatalf("second slot served %+v, want delayed row 1", sel)
	}
}

func TestDeterministicInjection(t *testing.T) {
	runOnce := func() []uint32 {
		inner := &countingTracker{}
		trk := WrapTracker(inner, Config{ActMissProb: 0.3, TrackerBitFlipProb: 0.3, Seed: 9}, rng.New(9))
		for i := 0; i < 5000; i++ {
			trk.OnActivation(uint32(i))
		}
		return inner.rows
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestPanicAfterActs(t *testing.T) {
	trk := WrapTracker(&countingTracker{}, Config{PanicAfterActs: 3}, rng.New(1))
	trk.OnActivation(1)
	trk.OnActivation(2)
	defer func() {
		if recover() == nil {
			t.Fatal("third activation did not panic")
		}
	}()
	trk.OnActivation(3)
}

func TestChaosPanicsDeterministicMix(t *testing.T) {
	cfg := Config{ChaosProb: 0.5, Seed: 7}
	ids := []string{"job-a", "job-b", "job-c", "job-d", "job-e", "job-f", "job-g", "job-h"}
	panics := 0
	for _, id := range ids {
		first := ChaosPanics(cfg, id)
		if second := ChaosPanics(cfg, id); second != first {
			t.Fatalf("ChaosPanics(%q) not deterministic", id)
		}
		if first {
			panics++
		}
	}
	if panics == 0 || panics == len(ids) {
		t.Fatalf("chaos selected %d/%d jobs; want a strict subset", panics, len(ids))
	}
	if ChaosPanics(Config{}, "job-a") {
		t.Fatal("zero config selected a job")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaybeChaosPanic did not panic at probability 1")
		}
	}()
	MaybeChaosPanic(Config{ChaosProb: 1, Seed: 1}, "doomed")
}

// replayTrace is what a tracker's run over an ACT stream shows from
// outside: every selection, the final table occupancy, and the injection
// counters when the tracker is fault-wrapped.
type replayTrace struct {
	sels        []tracker.Selection
	live, budge int
	spill       int64
	injected    [4]uint64
}

// replay drives trk over acts the way a bank does: a mitigation slot every
// 4 ACTs and a REF every 64.
func replay(trk tracker.Tracker, acts []uint32) replayTrace {
	var tr replayTrace
	for i, row := range acts {
		trk.OnActivation(row)
		if i%4 == 3 {
			tr.sels = append(tr.sels, trk.SelectForMitigation())
		}
		if ra, ok := trk.(tracker.REFAware); ok && i%64 == 63 {
			ra.OnREF()
		}
	}
	inner := trk
	if ft, ok := trk.(*Tracker); ok {
		inner = ft.Inner()
		tr.injected = [4]uint64{ft.Missed, ft.Flipped, ft.DroppedMits, ft.DelayedMits}
	}
	if ts, ok := inner.(tracker.TableStats); ok {
		tr.live, tr.budge, tr.spill = ts.TableStats()
	}
	return tr
}

// TestResetMatchesFresh: every registered tracker, bare and fault-wrapped,
// replays an ACT stream after Reset — with its PRNGs reseeded first, since
// construction draws from them — exactly as a freshly built one does: the
// same selections, table occupancy and injection counters.
func TestResetMatchesFresh(t *testing.T) {
	faults := Config{ActMissProb: 0.05, TrackerBitFlipProb: 0.05, DropMitigationProb: 0.1, DelayMitigationProb: 0.1}
	src := rng.New(7)
	acts := make([]uint32, 20000)
	for i := range acts {
		acts[i] = 1000 + 4*uint32(src.Intn(12))
	}
	const seed, faultSeed = 1, 2
	for _, name := range tracker.Names() {
		build, err := tracker.FromSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrap := range []bool{false, true} {
			r, fr := rng.New(seed), rng.New(faultSeed)
			newTracker := func() tracker.Tracker {
				trk, err := build(tracker.Env{TH: 4, R: r})
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					return WrapTracker(trk, faults, fr)
				}
				return trk
			}
			want := replay(newTracker(), acts)
			if !slices.ContainsFunc(want.sels, func(s tracker.Selection) bool { return s.OK }) {
				t.Fatalf("%s: the stream never triggers a selection", name)
			}
			r, fr = rng.New(seed), rng.New(faultSeed)
			reused := newTracker()
			replay(reused, acts)
			*r, *fr = *rng.New(seed), *rng.New(faultSeed)
			reused.Reset()
			if got := replay(reused, acts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (wrapped %v): replay after Reset differs from a fresh build: injected %v vs %v, table %d/%d/%d vs %d/%d/%d",
					name, wrap, got.injected, want.injected, got.live, got.budge, got.spill, want.live, want.budge, want.spill)
			}
		}
	}
}

func TestFromSpec(t *testing.T) {
	c, err := FromSpec("act-miss(p=0.01), drop-mitigation(p=0.1),chaos(p=0.5)", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 9, ActMissProb: 0.01, DropMitigationProb: 0.1, ChaosProb: 0.5}
	if c != want {
		t.Errorf("FromSpec = %+v, want %+v", c, want)
	}
	// An explicit fault seed wins over the simulation seed, with or
	// without injectors.
	if c, err := FromSpec("", 3, 9); err != nil || c != (Config{Seed: 3}) {
		t.Errorf("FromSpec(\"\", 3, 9) = %+v, %v", c, err)
	}
	for _, bad := range []string{"act-mis(p=0.1)", "act-miss(p=2)", "act-miss(q=0.1)", "act-miss(p=0.1),"} {
		if _, err := FromSpec(bad, 0, 1); err == nil {
			t.Errorf("FromSpec(%q): want an error", bad)
		}
	}
}
