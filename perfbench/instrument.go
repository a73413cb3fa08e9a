package main

import (
	"fmt"

	"autorfm/internal/cpu"
	"autorfm/internal/mitigation"
	"autorfm/internal/plugin"
	"autorfm/internal/rng"
	"autorfm/internal/sim"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

// layerCounts are the counts the NewStream, NewTracker and NewPolicy
// wrappers record. Every workload runs one simulation worker, so the
// wrappers are only ever called from one goroutine at a time, and the
// runner's job completion orders their writes before the benchmark reads
// them. The host time spent inside the wrappers is taken from the CPU
// profile (samples with a wrapper frame on the stack), which costs nothing
// per call; timing each call would cost more than most calls take.
type layerCounts struct {
	records   int64 // stream records delivered
	acts      int64 // tracker activations observed
	selects   int64 // SelectForMitigation calls
	selectsOK int64 // selections that nominated a row
	polCalls  int64 // Policy.Victims calls
	victims   int64 // victim rows returned
}

// countingStream forwards a workload stream, counting its records.
type countingStream struct {
	inner cpu.Stream
	c     *layerCounts
}

func (s *countingStream) Next() (cpu.Record, bool) {
	s.c.records++
	return s.inner.Next()
}

// countingTracker forwards a tracker, counting activations and selections.
// It forwards the optional tracker.REFAware and tracker.TableStats
// interfaces: a tracker that implements neither gets a no-op OnREF and
// zero occupancy, which is what the device does for it unwrapped.
type countingTracker struct {
	inner tracker.Tracker
	c     *layerCounts
}

func (t *countingTracker) Name() string { return t.inner.Name() }
func (t *countingTracker) Reset()       { t.inner.Reset() }

func (t *countingTracker) OnActivation(row uint32) {
	t.c.acts++
	t.inner.OnActivation(row)
}

func (t *countingTracker) SelectForMitigation() tracker.Selection {
	t.c.selects++
	sel := t.inner.SelectForMitigation()
	if sel.OK {
		t.c.selectsOK++
	}
	return sel
}

func (t *countingTracker) OnREF() {
	if ra, ok := t.inner.(tracker.REFAware); ok {
		ra.OnREF()
	}
}

func (t *countingTracker) TableStats() (live, budget int, spill int64) {
	if ts, ok := t.inner.(tracker.TableStats); ok {
		return ts.TableStats()
	}
	return 0, 0, 0
}

// countingPolicy forwards a mitigation policy, counting victim lookups.
type countingPolicy struct {
	inner mitigation.Policy
	c     *layerCounts
}

func (p *countingPolicy) Name() string      { return p.inner.Name() }
func (p *countingPolicy) NumRefreshes() int { return p.inner.NumRefreshes() }
func (p *countingPolicy) Recursive() bool   { return p.inner.Recursive() }

func (p *countingPolicy) Victims(sel tracker.Selection, rowsPerBank int) []uint32 {
	p.c.polCalls++
	v := p.inner.Victims(sel, rowsPerBank)
	p.c.victims += int64(len(v))
	return v
}

// wrapTracker builds the tracker the device would build for bank and wraps
// it. The device replaces a non-recursive MINT of window TH by a recursive
// one when the policy is recursive (dram's buildPipeline checks the
// concrete type, which the wrapper hides), so the wrapper makes that same
// replacement, drawing from the same PRNG, unless a fault injector sits
// between the device and the tracker and hides the type anyway.
func wrapTracker(c *layerCounts, build func(tracker.Env) (tracker.Tracker, error), env tracker.Env, faulted bool) (tracker.Tracker, error) {
	trk, err := build(env)
	if err != nil {
		return nil, err
	}
	if m, ok := trk.(*tracker.MINT); ok && !faulted && env.Recursive && m.Window() == env.TH {
		trk = tracker.NewMINT(env.TH, true, env.R)
	}
	return &countingTracker{inner: trk, c: c}, nil
}

// instrumentSim attaches the three wrappers to a simulation job's private
// config, reproducing the seeds and constructors sim uses for the
// unwrapped config. It is the runner.Pool Instrument hook of traced runs.
func instrumentSim(c *layerCounts, cfg *sim.Config) error {
	if cfg.Fault.ChaosProb > 0 {
		// Chaos picks victims by config key, and a wrapped config has none.
		return fmt.Errorf("chaos fault injection cannot be wrapped transparently")
	}
	n := cfg.Normalized()
	polBuild, err := mitigation.FromSpec(n.Policy)
	if err != nil {
		return err
	}
	probe, err := polBuild(rng.New(0))
	if err != nil {
		return err
	}
	recursive := probe.Recursive()
	trkBuild, err := tracker.FromSpec(n.Tracker)
	if err != nil {
		return err
	}
	faulted := n.Fault.Active()
	prof, seed := n.Workload, n.Seed
	cfg.NewStream = func(core int) cpu.Stream {
		return &countingStream{inner: workload.NewGenerator(prof, core, seed^0xc0de), c: c}
	}
	cfg.NewPolicy = func(bank int, r *rng.Source) mitigation.Policy {
		p, err := polBuild(r)
		if err != nil {
			panic(err) // unreachable: probed above
		}
		return &countingPolicy{inner: p, c: c}
	}
	th := n.TH
	cfg.NewTracker = func(bank int, r *rng.Source) tracker.Tracker {
		t, err := wrapTracker(c, trkBuild, tracker.Env{Bank: bank, TH: th, Recursive: recursive, R: r}, faulted)
		if err != nil {
			panic(err) // unreachable: sim validated the spec
		}
		return t
	}
	return nil
}

// countedPrefix names the registry entries that wrap a built-in tracker or
// policy for attack.Run, whose device is built inside the attack package:
// "counted.mint" builds "mint" and counts it.
const countedPrefix = "counted."

// registerCounted registers a counted.<name> wrapper for every tracker and
// policy the audit uses, all recording into c.
func registerCounted(c *layerCounts, trackers, policies []string) {
	for _, name := range trackers {
		name := name
		tracker.Register(plugin.Info{Name: countedPrefix + name, Doc: "counting wrapper of " + name},
			func(s *plugin.Spec, env tracker.Env) (tracker.Tracker, error) {
				if err := s.Finish(); err != nil {
					return nil, err
				}
				build, err := tracker.FromSpec(name)
				if err != nil {
					return nil, err
				}
				return wrapTracker(c, build, env, false)
			})
	}
	for _, name := range policies {
		name := name
		mitigation.Register(plugin.Info{Name: countedPrefix + name, Doc: "counting wrapper of " + name},
			func(s *plugin.Spec, r *rng.Source) (mitigation.Policy, error) {
				if err := s.Finish(); err != nil {
					return nil, err
				}
				p, err := mitigation.ByName(name, r)
				if err != nil {
					return nil, err
				}
				return &countingPolicy{inner: p, c: c}, nil
			})
	}
}
