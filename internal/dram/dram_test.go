package dram

import (
	"reflect"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

func autoCfg(th int) Config {
	return Config{
		Geo:    mapping.Default(),
		Timing: clk.DDR5(),
		Mode:   ModeAutoRFM,
		TH:     th,
		Seed:   1,
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{ModeNone: "none", ModeRFM: "rfm", ModeAutoRFM: "autorfm", ModePRAC: "prac"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestActivateOutOfRangePanics(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	defer func() {
		if recover() == nil {
			t.Error("Activate of a row >= RowsPerBank did not panic")
		}
	}()
	b.Activate(0, uint32(d.Cfg.Geo.RowsPerBank))
}

func TestAutoRFMWindowCloses(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	now := clk.Tick(0)
	closes := 0
	for i := 0; i < 40; i++ {
		res := b.Activate(now, uint32(i*1000))
		if res.Alert {
			t.Fatalf("unexpected alert on act %d (no SAUM active)", i)
		}
		if res.WindowClosed {
			closes++
			b.StartPendingMitigation(now + clk.DDR5().TRAS)
			// Advance past the mitigation so the next window's ACTs
			// (same subarray in this synthetic stream) don't conflict.
			now += clk.DDR5().MitigationTime(4)
		}
		now += clk.DDR5().TRC
	}
	if closes != 10 {
		t.Fatalf("window closed %d times over 40 ACTs at TH=4, want 10", closes)
	}
	if b.Stats.Mitigations != 10 {
		t.Fatalf("Mitigations = %d, want 10", b.Stats.Mitigations)
	}
	if b.Stats.VictimRefreshes != 40 {
		t.Fatalf("VictimRefreshes = %d, want 40 (4 per mitigation)", b.Stats.VictimRefreshes)
	}
}

func TestSAUMConflictAlerts(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	g := d.Cfg.Geo
	tm := clk.DDR5()
	// Close one window with rows all in subarray 0 so the SAUM is known.
	now := clk.Tick(0)
	for i := 0; i < 4; i++ {
		b.Activate(now, uint32(i)) // rows 0..3 → subarray 0
		now += tm.TRC
	}
	pt := now + tm.TRAS
	b.StartPendingMitigation(pt)
	sa, until := b.SAUM()
	if sa != 0 {
		t.Fatalf("SAUM = %d, want 0", sa)
	}
	if want := pt + tm.MitigationTime(4); until != want {
		t.Fatalf("SAUM until %v, want %v", until, want)
	}
	// An ACT to subarray 0 during the mitigation must ALERT and not count.
	actsBefore := b.Stats.Acts
	res := b.Activate(pt+clk.NS(10), 100) // row 100 → subarray 0
	if !res.Alert {
		t.Fatal("conflicting ACT not alerted")
	}
	if b.Stats.Acts != actsBefore {
		t.Fatal("failed ACT was counted as successful")
	}
	if b.Stats.Alerts != 1 {
		t.Fatalf("Alerts = %d, want 1", b.Stats.Alerts)
	}
	// An ACT to another subarray proceeds normally.
	if res := b.Activate(pt+clk.NS(20), uint32(g.SubarrayRows+5)); res.Alert {
		t.Fatal("non-conflicting ACT alerted")
	}
	// After the mitigation time the subarray is free again (the paper's
	// guaranteed-retry property).
	if res := b.Activate(until, 100); res.Alert {
		t.Fatal("retry after mitigation time alerted — DoS guarantee violated")
	}
}

func TestSAUMTracksAggressorSubarray(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	// All four window ACTs in subarray 7.
	base := uint32(7 * d.Cfg.Geo.SubarrayRows)
	for i := 0; i < 4; i++ {
		b.Activate(now, base+uint32(i))
		now += tm.TRC
	}
	b.StartPendingMitigation(now)
	if sa, _ := b.SAUM(); sa != 7 {
		t.Fatalf("SAUM = %d, want 7", sa)
	}
}

func TestRFMModeNoSAUM(t *testing.T) {
	cfg := autoCfg(4)
	cfg.Mode = ModeRFM
	d := NewDevice(cfg)
	b := d.Banks[0]
	for i := 0; i < 4; i++ {
		res := b.Activate(clk.Tick(i)*clk.DDR5().TRC, uint32(i))
		if res.WindowClosed || res.Alert {
			t.Fatal("RFM mode must not close AutoRFM windows or alert")
		}
	}
	b.ExecuteRFM()
	if b.Stats.Mitigations != 1 {
		t.Fatalf("Mitigations = %d after RFM, want 1", b.Stats.Mitigations)
	}
	if b.SAUMActive(clk.NS(1)) {
		t.Fatal("RFM mode set a SAUM")
	}
}

func TestREFMitigatesInRFMMode(t *testing.T) {
	cfg := autoCfg(8)
	cfg.Mode = ModeRFM
	d := NewDevice(cfg)
	b := d.Banks[0]
	for i := 0; i < 8; i++ {
		b.Activate(0, uint32(i))
	}
	b.ExecuteREF(0)
	if b.Stats.Mitigations != 1 {
		t.Fatalf("REF did not mitigate in RFM mode: %d", b.Stats.Mitigations)
	}

	// In AutoRFM mode REF performs no tracker mitigation.
	d2 := NewDevice(autoCfg(8))
	b2 := d2.Banks[0]
	for i := 0; i < 4; i++ {
		b2.Activate(0, uint32(i))
	}
	b2.ExecuteREF(0)
	if b2.Stats.Mitigations != 0 {
		t.Fatal("REF mitigated in AutoRFM mode")
	}
}

func TestPRACCountersAndABO(t *testing.T) {
	cfg := autoCfg(0)
	cfg.Mode = ModePRAC
	cfg.PRACETh = 10
	d := NewDevice(cfg)
	b := d.Banks[0]
	var abo bool
	for i := 0; i < 10; i++ {
		res := b.Activate(clk.Tick(i), 500)
		abo = abo || res.ABO
	}
	if !abo {
		t.Fatal("no ABO after ETH activations of one row")
	}
	if b.Stats.ABOAlerts != 1 {
		t.Fatalf("ABOAlerts = %d, want 1", b.Stats.ABOAlerts)
	}
	b.ExecutePRACBackoff()
	if b.Stats.Mitigations != 1 {
		t.Fatal("back-off did not mitigate")
	}
	if b.pracCounts[500] != 0 {
		t.Fatal("counter not reset by back-off")
	}
	// Counter restarts; next ETH activations raise ABO again.
	abo = false
	for i := 0; i < 10; i++ {
		res := b.Activate(clk.Tick(100+i), 500)
		abo = abo || res.ABO
	}
	if !abo {
		t.Fatal("no second ABO after counter reset")
	}
}

func TestRecursivePolicyGetsReservedSlotTracker(t *testing.T) {
	cfg := autoCfg(4)
	cfg.NewPolicy = func(bank int, r *rng.Source) mitigation.Policy {
		return mitigation.NewRecursive()
	}
	d := NewDevice(cfg)
	b := d.Banks[0]
	m, ok := b.Tracker().(*tracker.MINT)
	if !ok {
		t.Fatal("default tracker is not MINT")
	}
	if m.Name() != "mint-4+rm" {
		t.Fatalf("tracker = %s, want mint-4+rm (reserved transitive slot)", m.Name())
	}
}

func TestDefaultFractalNeverTransitiveMitigations(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	for i := 0; i < 4000; i++ {
		res := b.Activate(now, uint32(i%8))
		now += tm.TRC
		if res.WindowClosed {
			b.StartPendingMitigation(now)
			now += tm.MitigationTime(4)
		}
	}
	if b.Stats.TransitiveMits != 0 {
		t.Fatalf("fractal produced %d transitive mitigations", b.Stats.TransitiveMits)
	}
	if b.Stats.Mitigations != 1000 {
		t.Fatalf("Mitigations = %d, want 1000", b.Stats.Mitigations)
	}
}

// TestSAUMBusyBounded verifies the deterministic-latency property: with
// Fractal Mitigation the SAUM busy period is exactly NumRefreshes × tRC.
func TestSAUMBusyBounded(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	for i := 0; i < 400; i++ {
		res := b.Activate(now, uint32(i))
		now += tm.TRC
		if res.WindowClosed {
			b.StartPendingMitigation(now)
			_, until := b.SAUM()
			if until-now != tm.MitigationTime(4) {
				t.Fatalf("SAUM busy %v, want %v", until-now, tm.MitigationTime(4))
			}
			now += tm.MitigationTime(4) // let the mitigation drain
		}
	}
	wantBusy := clk.Tick(100) * tm.MitigationTime(4)
	if b.Stats.SAUMBusy != wantBusy {
		t.Fatalf("total SAUM busy %v, want %v", b.Stats.SAUMBusy, wantBusy)
	}
}

func TestTotalStats(t *testing.T) {
	d := NewDevice(autoCfg(4))
	d.Banks[0].Activate(0, 1)
	d.Banks[1].Activate(0, 2)
	d.Banks[63].Activate(0, 3)
	if got := d.TotalStats().Acts; got != 3 {
		t.Fatalf("TotalStats.Acts = %d, want 3", got)
	}
}

// TestREFAwareTrackerReceivesOnREF: REF-aware trackers (TWiCe) are aged by
// every REF command the bank executes.
func TestREFAwareTrackerReceivesOnREF(t *testing.T) {
	cfg := autoCfg(4)
	cfg.NewTracker = func(bank int, r *rng.Source) tracker.Tracker {
		return tracker.NewTWiCe(1000)
	}
	d := NewDevice(cfg)
	b := d.Banks[0]
	tw := b.Tracker().(*tracker.TWiCe)
	// Insert a slow row, then run REFs: pruning must evict it.
	b.Activate(0, 77)
	if tw.TableSize() != 1 {
		t.Fatalf("TableSize = %d", tw.TableSize())
	}
	for i := uint64(1); i <= 100; i++ {
		b.ExecuteREF(i)
	}
	if tw.TableSize() != 0 {
		t.Fatalf("slow row not pruned after 100 REFs (size %d)", tw.TableSize())
	}
}

// TestDeviceResetMatchesNew pins the warm-reuse contract of Device.Reset: a
// used device Reset to a new seed, threshold and possibly a new mode
// carries exactly the state NewDevice builds for that config — per-bank
// tracker, policy and PRNG, scalar window/SAUM/ABO state, stats, PRAC
// counters and audit ledgers — and a config needing differently shaped
// arrays is refused. A device keeps its PRAC counter buffer across modes.
func TestDeviceResetMatchesNew(t *testing.T) {
	for _, modes := range [][]Mode{
		{ModeAutoRFM, ModeAutoRFM},
		{ModePRAC, ModePRAC},
		{ModeAutoRFM, ModePRAC},
		{ModePRAC, ModeRFM},
		{ModePRAC, ModeAutoRFM, ModePRAC},
	} {
		cfg := autoCfg(4)
		cfg.Mode, cfg.PRACETh, cfg.Audit, cfg.AuditThreshold = modes[0], 8, true, 100
		d := NewDevice(cfg)
		for step, mode := range modes[1:] {
			for _, b := range d.Banks[:4] {
				exercise(b)
			}
			if st := d.TotalStats(); st.Mitigations == 0 {
				t.Fatalf("%v step %d: exercise performed no mitigations", modes, step)
			}
			prac := d.prac

			cfg.Mode = mode
			cfg.Seed, cfg.TH, cfg.PRACETh, cfg.AuditThreshold = 99+uint64(step), 8, 16, 200
			if !d.Reset(cfg) {
				t.Fatalf("%v step %d: Reset refused a same-shape config", modes, step)
			}
			if prac != nil && &d.prac[0] != &prac[0] {
				t.Fatalf("%v step %d: Reset reallocated the PRAC counters", modes, step)
			}
			fresh := NewDevice(cfg)
			if d.Cfg.Mode != mode || d.Cfg.Seed != fresh.Cfg.Seed || d.Cfg.TH != fresh.Cfg.TH ||
				d.Cfg.PRACETh != fresh.Cfg.PRACETh {
				t.Fatalf("%v step %d: Reset kept the old config: %+v", modes, step, d.Cfg)
			}
			for i := range fresh.Banks {
				got, want := *d.Banks[i], *fresh.Banks[i]
				got.cfg, want.cfg = nil, nil // config hooks are funcs; compared above
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v step %d bank %d: Reset state differs from NewDevice\ngot:  %+v\nwant: %+v",
						modes, step, i, got, want)
				}
			}
		}
	}

	base := autoCfg(4)
	for name, mut := range map[string]func(*Config){
		"geometry": func(c *Config) { c.Geo.RowsPerBank /= 2 },
		"audit":    func(c *Config) { c.Audit = true },
	} {
		other := base
		mut(&other)
		if NewDevice(base).Reset(other) {
			t.Errorf("Reset accepted a %s change", name)
		}
	}
}

// exercise drives b through activations, window-closing and RFM
// mitigations, PRAC back-offs and REFs, whichever its mode uses. Seven
// rows share 400 ACTs, so at PRACETh 8 their counters end nonzero.
func exercise(b *Bank) {
	for i := 0; i < 400; i++ {
		res := b.Activate(clk.Tick(i), uint32(i%7*1000))
		if res.WindowClosed {
			b.StartPendingMitigation(clk.Tick(i))
		}
		if res.ABO {
			b.ExecutePRACBackoff()
		}
		if i%50 == 0 {
			b.ExecuteREF(uint64(i))
		}
		if i%16 == 0 && b.cfg.Mode == ModeRFM {
			b.ExecuteRFM()
		}
	}
}

// TestNewBankMatchesDevice pins NewBank to the bank NewDevice builds at the
// same index: pipeline, PRNG state, scalar state, stats, PRAC counters and
// ledger are equal when built and stay equal under the same commands.
func TestNewBankMatchesDevice(t *testing.T) {
	for _, mode := range []Mode{ModeAutoRFM, ModeRFM, ModePRAC} {
		cfg := autoCfg(0) // NewBank must fill the default TH as NewDevice does
		cfg.Mode, cfg.PRACETh, cfg.Audit, cfg.AuditThreshold = mode, 8, true, 100
		for _, id := range []int{0, 63} {
			got, want := NewBank(cfg, id), NewDevice(cfg).Banks[id]
			gotCfg, wantCfg := *got.cfg, *want.cfg
			gotCfg.NewTracker, gotCfg.NewPolicy = nil, nil
			wantCfg.NewTracker, wantCfg.NewPolicy = nil, nil
			if !reflect.DeepEqual(gotCfg, wantCfg) {
				t.Fatalf("%v bank %d: config\ngot:  %+v\nwant: %+v", mode, id, gotCfg, wantCfg)
			}
			for _, phase := range []string{"built", "exercised"} {
				if phase == "exercised" {
					exercise(got)
					exercise(want)
					if got.Stats.Mitigations == 0 {
						t.Fatalf("%v bank %d: exercise performed no mitigations", mode, id)
					}
				}
				g, w := *got, *want
				g.cfg, w.cfg = nil, nil // compared above
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%v bank %d %s: NewBank differs from NewDevice\ngot:  %+v\nwant: %+v", mode, id, phase, g, w)
				}
			}
		}
	}
}

// TestMitigationPathZeroAllocs pins the audited mitigation path off the
// heap for every built-in policy: steady-state activations, the window
// mitigation they trigger (tracker selection, victim lookup, ledger
// refreshes) and REFs allocate nothing.
func TestMitigationPathZeroAllocs(t *testing.T) {
	tm := clk.DDR5()
	for _, name := range []string{"fractal", "recursive", "baseline"} {
		cfg := autoCfg(4)
		cfg.Audit, cfg.AuditThreshold = true, 148
		cfg.NewPolicy = func(_ int, r *rng.Source) mitigation.Policy {
			p, err := mitigation.ByName(name, r)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		b := NewBank(cfg, 0)
		now, row, ref := clk.Tick(0), uint32(0), uint64(0)
		avg := testing.AllocsPerRun(2000, func() {
			for i := 0; i < 4; i++ {
				res := b.Activate(now, row%(1<<17))
				row += 4099
				now += tm.TRC
				if res.WindowClosed {
					b.StartPendingMitigation(now + tm.TRAS)
					now += tm.MitigationTime(4)
				}
			}
			ref++
			b.ExecuteREF(ref)
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, avg)
		}
		if b.Stats.Mitigations == 0 || b.Stats.VictimRefreshes == 0 {
			t.Fatalf("%s: loop performed no mitigations", name)
		}
	}
}
