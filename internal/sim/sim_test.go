package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"autorfm/internal/cache"
	"autorfm/internal/clk"
	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/fault"
	"autorfm/internal/workload"
)

// quick returns a config for fast test runs.
func quick(w string, mut func(*Config)) Config {
	p, err := workload.ByName(w)
	if err != nil {
		panic(err)
	}
	cfg := Config{Workload: p, InstructionsPerCore: 150_000, Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func TestBaselineRunsAllCores(t *testing.T) {
	r := MustRun(quick("bwaves", nil))
	if len(r.FinishTimes) != 8 {
		t.Fatalf("FinishTimes = %d cores", len(r.FinishTimes))
	}
	// Cores overshoot the retire target by at most one trace record.
	if r.Instructions < 8*150_000 || r.Instructions > 8*151_000 {
		t.Fatalf("Instructions = %d", r.Instructions)
	}
	for i, ft := range r.FinishTimes {
		if ft <= 0 {
			t.Fatalf("core %d never finished", i)
		}
	}
	if r.MC.Acts == 0 || r.Cache.Misses == 0 {
		t.Fatal("no memory traffic")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustRun(quick("mcf", nil))
	b := MustRun(quick("mcf", nil))
	if a.Elapsed != b.Elapsed || a.MC.Acts != b.MC.Acts {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.Elapsed, a.MC.Acts, b.Elapsed, b.MC.Acts)
	}
	c := MustRun(quick("mcf", func(c *Config) { c.Seed = 2 }))
	if a.Elapsed == c.Elapsed {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestCalibrationTableV verifies each workload generator lands on its
// published Table V statistics: ACT-PKI within 10% and per-bank
// ACT-per-tREFI within 25%.
func TestCalibrationTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	for _, p := range workload.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			r := MustRun(Config{Workload: p, InstructionsPerCore: 200_000, Mode: dram.ModeNone, Seed: 1})
			// 10% relative tolerance plus a small absolute floor for the
			// near-idle workloads (wrf/blender) whose short slices are
			// dominated by warm-up writeback noise.
			if got := r.ACTPKI(); math.Abs(got-p.TargetACTPKI) > 0.10*p.TargetACTPKI+0.15 {
				t.Errorf("ACT-PKI = %.1f, want %.1f ±10%%", got, p.TargetACTPKI)
			}
			if got := r.ACTPerTREFI(); math.Abs(got-p.TargetACTPerTREFI)/p.TargetACTPerTREFI > 0.25 {
				t.Errorf("ACT/tREFI = %.1f, want %.1f ±25%%", got, p.TargetACTPerTREFI)
			}
		})
	}
}

// TestRFMSlowdownOrdering reproduces the Fig 3 structure: slowdown grows
// sharply as RFMTH shrinks, and RFM-32 is near-free.
func TestRFMSlowdownOrdering(t *testing.T) {
	base := MustRun(quick("pagerank", nil))
	var sd [4]float64
	for i, th := range []int{4, 8, 16, 32} {
		r := MustRun(quick("pagerank", func(c *Config) { c.Mode = dram.ModeRFM; c.TH = th }))
		sd[i] = Slowdown(base, r)
	}
	if !(sd[0] > sd[1] && sd[1] > sd[2] && sd[2] > sd[3]) {
		t.Fatalf("RFM slowdowns not monotone: %v", sd)
	}
	if sd[0] < 10 {
		t.Errorf("RFM-4 slowdown = %.1f%%, expected severe (paper: 33%% avg)", sd[0])
	}
	if sd[3] > 6 {
		t.Errorf("RFM-32 slowdown = %.1f%%, expected near zero", sd[3])
	}
}

// TestAutoRFMBeatsRFM reproduces the headline Fig 11 comparison at TH=4.
func TestAutoRFMBeatsRFM(t *testing.T) {
	base := MustRun(quick("bfs", nil))
	rfm := MustRun(quick("bfs", func(c *Config) { c.Mode = dram.ModeRFM; c.TH = 4 }))
	auto := MustRun(quick("bfs", func(c *Config) {
		c.Mode = dram.ModeAutoRFM
		c.TH = 4
		c.Mapping = "rubix"
	}))
	sdRFM, sdAuto := Slowdown(base, rfm), Slowdown(base, auto)
	if sdAuto >= sdRFM/2 {
		t.Fatalf("AutoRFM-4 (%.1f%%) not clearly better than RFM-4 (%.1f%%)", sdAuto, sdRFM)
	}
	if sdAuto > 6 {
		t.Fatalf("AutoRFM-4+rubix slowdown = %.1f%%, paper reports ≈3%%", sdAuto)
	}
}

// TestRubixCutsAlerts reproduces the Fig 8(b) effect: randomised mapping
// slashes the ALERT probability versus the Zen mapping.
func TestRubixCutsAlerts(t *testing.T) {
	zen := MustRun(quick("parest", func(c *Config) { c.Mode = dram.ModeAutoRFM; c.TH = 4 }))
	rbx := MustRun(quick("parest", func(c *Config) {
		c.Mode = dram.ModeAutoRFM
		c.TH = 4
		c.Mapping = "rubix"
	}))
	if zen.AlertPerAct() < 3*rbx.AlertPerAct() {
		t.Fatalf("alerts: zen %.4f vs rubix %.4f — want ≥3x reduction",
			zen.AlertPerAct(), rbx.AlertPerAct())
	}
	// Rubix must land near the 1/256 bound scaled by SAUM duty (paper 0.22%).
	if r := rbx.AlertPerAct(); r > 0.005 {
		t.Fatalf("rubix alert rate %.4f too high", r)
	}
}

// TestRubixInflatesActs reproduces the Section VI-B / Appendix C property:
// randomised mapping loses the Zen mapping's page-buddy row hits and
// therefore issues more activations.
func TestRubixInflatesActs(t *testing.T) {
	zen := MustRun(quick("lbm", nil))
	rbx := MustRun(quick("lbm", func(c *Config) { c.Mapping = "rubix" }))
	if rbx.MC.Acts <= zen.MC.Acts {
		t.Fatalf("rubix acts %d ≤ zen acts %d — row-hit loss not modelled",
			rbx.MC.Acts, zen.MC.Acts)
	}
	if zen.MC.RowHitRate() == 0 {
		t.Fatal("zen mapping shows no row hits")
	}
	if rbx.MC.RowHitRate() > 0.01 {
		t.Fatalf("rubix row-hit rate %.3f should be ≈0", rbx.MC.RowHitRate())
	}
}

// TestAutoRFMMitigationRate: one mitigation per AutoRFMTH activations.
func TestAutoRFMMitigationRate(t *testing.T) {
	r := MustRun(quick("conncomp", func(c *Config) { c.Mode = dram.ModeAutoRFM; c.TH = 4 }))
	perMit := float64(r.MC.Acts) / float64(r.Dev.Mitigations)
	if perMit < 3.9 || perMit > 4.5 {
		t.Fatalf("acts per mitigation = %.2f, want ≈4", perMit)
	}
	if r.Dev.VictimRefreshes < 4*r.Dev.Mitigations-100 {
		t.Fatalf("victim refreshes %d for %d mitigations, want ≈4 each",
			r.Dev.VictimRefreshes, r.Dev.Mitigations)
	}
}

func TestPRACModeRuns(t *testing.T) {
	// Use a bank-bound workload so the +10% tRC shows through the noise of
	// a short slice.
	mk := func(mut func(*Config)) Config {
		c := quick("conncomp", mut)
		c.InstructionsPerCore = 250_000
		return c
	}
	base := MustRun(mk(nil))
	prac := MustRun(mk(func(c *Config) { c.Mode = dram.ModePRAC; c.PRACETh = 64 }))
	sd := Slowdown(base, prac)
	// PRAC pays the inflated tRC on every access: a few percent, always > 0
	// (Fig 13's flat floor).
	if sd <= 0 || sd > 15 {
		t.Fatalf("PRAC slowdown = %.1f%%, want small positive", sd)
	}
}

func TestTrackers(t *testing.T) {
	for _, tr := range []string{"mint", "pride", "parfm", "mithril"} {
		r := MustRun(quick("scale", func(c *Config) {
			c.Mode = dram.ModeAutoRFM
			c.TH = 4
			c.Tracker = tr
		}))
		if r.Dev.Mitigations == 0 {
			t.Errorf("tracker %s performed no mitigations", tr)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	p, _ := workload.ByName("xz")
	if _, err := Run(Config{Workload: p, Tracker: "bogus"}); err == nil {
		t.Error("unknown tracker accepted")
	}
	if _, err := Run(Config{Workload: p, Mapping: "bogus"}); err == nil {
		t.Error("unknown mapping accepted")
	}
}

func TestRecursivePolicyTransitiveMitigations(t *testing.T) {
	r := MustRun(quick("bfs", func(c *Config) {
		c.Mode = dram.ModeAutoRFM
		c.TH = 4
		c.Policy = "recursive"
	}))
	if r.Dev.TransitiveMits == 0 {
		t.Fatal("recursive policy produced no transitive mitigations")
	}
	frac := float64(r.Dev.TransitiveMits) / float64(r.Dev.Mitigations)
	// The reserved slot fires 1/(W+1) = 20% of the time at W=4.
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("transitive fraction = %.2f, want ≈0.2", frac)
	}
}

func TestThroughputAndSlowdownHelpers(t *testing.T) {
	r := Result{FinishTimes: []clk.Tick{100, 200}}
	if r.Throughput() != 1.0/100+1.0/200 {
		t.Fatalf("Throughput = %v", r.Throughput())
	}
	base := Result{FinishTimes: []clk.Tick{100, 100}}
	test := Result{FinishTimes: []clk.Tick{200, 200}}
	if sd := Slowdown(base, test); sd != 50 {
		t.Fatalf("Slowdown = %v, want 50", sd)
	}
}

// TestTraceReplayMatchesGenerator: recording a workload's stream and
// replaying it through the simulator reproduces the generator-driven run
// exactly (same activations, same finish time).
func TestTraceReplayMatchesGenerator(t *testing.T) {
	p, _ := workload.ByName("scale")
	cfg := Config{Workload: p, Cores: 2, InstructionsPerCore: 50_000, Seed: 5}
	direct := MustRun(cfg)

	// Record each core's stream to an in-memory trace.
	traces := make([]*bytes.Buffer, 2)
	for i := range traces {
		traces[i] = &bytes.Buffer{}
		gen := workload.NewGenerator(p, i, cfg.Seed^0xc0de)
		// Enough records to cover the instruction target.
		if err := workload.Capture(traces[i], gen, 40_000); err != nil {
			t.Fatal(err)
		}
	}
	replay := cfg
	replay.NewStream = func(core int) cpu.Stream {
		tr, err := workload.NewTraceReader(bytes.NewReader(traces[core].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	replayed := MustRun(replay)
	if replayed.Elapsed != direct.Elapsed || replayed.MC.Acts != direct.MC.Acts {
		t.Fatalf("replay diverged: elapsed %v vs %v, acts %d vs %d",
			replayed.Elapsed, direct.Elapsed, replayed.MC.Acts, direct.MC.Acts)
	}
}

// TestConfigKey pins the memoization contract: defaults normalize into the
// key, every simulation-relevant field perturbs it, and NewStream configs
// are keyless (uncacheable).
func TestConfigKey(t *testing.T) {
	base := quick("bwaves", nil)
	if base.Key() == "" {
		t.Fatal("cacheable config produced no key")
	}
	defaulted := base
	defaulted.Cores, defaulted.TH = 8, 4 // the defaults, spelled out
	if defaulted.Key() != base.Key() {
		t.Error("explicit defaults changed the key")
	}
	muts := map[string]func(*Config){
		"workload": func(c *Config) { c.Workload.MemPKI *= 2 },
		"cores":    func(c *Config) { c.Cores = 4 },
		"instr":    func(c *Config) { c.InstructionsPerCore = 42 },
		"mode":     func(c *Config) { c.Mode = dram.ModeRFM },
		"th":       func(c *Config) { c.TH = 8 },
		"mapping":  func(c *Config) { c.Mapping = "rubix" },
		"policy":   func(c *Config) { c.Policy = "recursive" },
		"tracker":  func(c *Config) { c.Tracker = "pride" },
		"praceth":  func(c *Config) { c.PRACETh = 32 },
		"retry":    func(c *Config) { c.RetryWaitNS = 400 },
		"raamax":   func(c *Config) { c.RAAMaxFactor = 1 },
		"prefetch": func(c *Config) { c.PrefetchDegree = -1 },
		"seed":     func(c *Config) { c.Seed = 99 },
	}
	for name, mut := range muts {
		c := base
		mut(&c)
		if c.Key() == base.Key() {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	stream := base
	stream.NewStream = func(core int) cpu.Stream { return nil }
	if stream.Key() != "" {
		t.Error("NewStream config has a key")
	}
	if n := (Config{Workload: base.Workload}).Normalized(); n.Cores != 8 || n.Tracker != "mint" {
		t.Errorf("Normalized defaults wrong: %+v", n)
	}
}

// diffProfile returns the named workload profile, panicking on a typo.
func diffProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// TestMachineReuseMatchesFresh pins the warm-reuse contract: a Machine
// reused across seeds, workloads and modes — resetting its device across a
// mode change, and restoring LLC snapshots where it holds them — produces
// identical Results to fresh construction. snaps is the number of LLC
// snapshots the machine holds after each step: a warm key's first sighting
// takes none, its second takes one, later ones restore it.
func TestMachineReuseMatchesFresh(t *testing.T) {
	bwaves, lbm := diffProfile("bwaves"), diffProfile("lbm")
	// A copy of bwaves under another name warms identically, but is a
	// different workload and must not share bwaves' snapshot.
	renamed := bwaves
	renamed.Name = "bwaves-copy"
	auto := func(w workload.Profile, seed uint64) Config {
		return Config{Workload: w, InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: seed}
	}
	prac := func(w workload.Profile, seed uint64) Config {
		return Config{Workload: w, InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 16, Seed: seed}
	}
	seq := []struct {
		cfg   Config
		snaps int
	}{
		{auto(bwaves, 1), 0},
		{auto(bwaves, 2), 0},
		{auto(lbm, 3), 0},
		// Mode change: the device is Reset into PRAC mode and allocates its
		// PRAC counter buffer.
		{prac(bwaves, 4), 0},
		{prac(bwaves, 5), 0},
		// One config three times: the second run snapshots, the third restores.
		{auto(lbm, 6), 0},
		{auto(lbm, 6), 1},
		{auto(lbm, 6), 1},
		// Two keys interleaved.
		{auto(bwaves, 7), 1},
		{auto(lbm, 7), 1},
		{auto(bwaves, 7), 2},
		{auto(lbm, 7), 3},
		{auto(bwaves, 7), 3},
		{auto(lbm, 7), 3},
		// The renamed copy is a key of its own.
		{auto(renamed, 7), 3},
		{auto(renamed, 7), 4},
		// PRAC -> AutoRFM -> PRAC on a restored key: the PRAC counter
		// buffer is kept across the flip and cleared on the way back.
		{prac(bwaves, 7), 4},
		{auto(bwaves, 7), 4},
		{prac(bwaves, 7), 4},
	}
	var m Machine
	var dev *dram.Device
	for i, step := range seq {
		cfg := step.cfg
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("step %d fresh: %v", i, err)
		}
		reused, err := m.Run(cfg)
		if err != nil {
			t.Fatalf("step %d reused: %v", i, err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("step %d (%s %v seed %d): machine-reuse Result diverges from fresh",
				i, cfg.Workload.Name, cfg.Mode, cfg.Seed)
		}
		if len(m.snaps) != step.snaps {
			t.Fatalf("step %d (%s seed %d): machine holds %d snapshots, want %d",
				i, cfg.Workload.Name, cfg.Seed, len(m.snaps), step.snaps)
		}
		// No step changes the geometry or audit setting, so every mode
		// change must Reset the first device, not build a new one.
		if i == 0 {
			dev = m.dev
		} else if m.dev != dev {
			t.Fatalf("step %d (%v): machine rebuilt its device", i, cfg.Mode)
		}
	}
}

// TestMachineSnapshotCap pins the snapshot admission bounds: past
// maxSnapshots a machine takes no more snapshots, still restores the ones it
// holds, and stops counting sightings; it never remembers more than maxSeen
// once-seen keys.
func TestMachineSnapshotCap(t *testing.T) {
	small := cache.Config{SizeBytes: 64 << 10, Ways: 16, LineBytes: 64}
	m := Machine{llc: cache.New(small, nil, &event.Queue{}), llcCfg: small}
	cfg := warmConfig()
	for seed := uint64(0); seed < maxSnapshots+4; seed++ {
		cfg.Seed = seed
		m.warm(&cfg, nil)
		m.warm(&cfg, nil)
	}
	if len(m.snaps) != maxSnapshots || len(m.seen) != 0 {
		t.Fatalf("after %d keys seen twice: %d snapshots, %d once-seen keys; want %d and 0",
			maxSnapshots+4, len(m.snaps), len(m.seen), maxSnapshots)
	}
	cfg.Seed = 0
	m.warm(&cfg, nil)
	want := cache.New(small, nil, &event.Queue{})
	prewarm(want, small, cfg)
	if !reflect.DeepEqual(m.llc.Snapshot(), want.Snapshot()) {
		t.Fatal("restored LLC differs from a prewarmed one")
	}

	m = Machine{llc: cache.New(small, nil, &event.Queue{}), llcCfg: small}
	for seed := uint64(0); seed <= maxSeen; seed++ {
		cfg.Seed = seed
		m.warm(&cfg, nil)
		if len(m.seen) > maxSeen {
			t.Fatalf("machine remembers %d once-seen keys, cap %d", len(m.seen), maxSeen)
		}
	}
	if len(m.snaps) != 0 {
		t.Fatalf("keys seen once took %d snapshots", len(m.snaps))
	}
}

// TestMachineDropsStateAfterPanic pins the poisoning contract: a run that
// panics mid-simulation leaves the machine dirty, and the next run builds
// fresh state rather than resuming from garbage, while restoring the LLC
// from the snapshot taken before the panic.
func TestMachineDropsStateAfterPanic(t *testing.T) {
	var m Machine
	good := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000,
		Mode: dram.ModeAutoRFM, TH: 4, Seed: 11}
	// Run good twice so the machine holds its LLC snapshot, which the
	// poisoned run must not spoil.
	for i := 0; i < 2; i++ {
		if _, err := m.Run(good); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.snaps) != 1 {
		t.Fatalf("machine holds %d snapshots after two runs of one key, want 1", len(m.snaps))
	}
	bad := good
	bad.Fault = fault.Config{Seed: 3, PanicAfterActs: 50}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fault-injected run did not panic")
			}
		}()
		_, _ = m.Run(bad)
	}()
	fresh, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fresh) {
		t.Fatal("post-panic machine run diverges from fresh run")
	}
}
