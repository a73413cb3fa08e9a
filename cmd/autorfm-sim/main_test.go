package main

import (
	"context"
	"reflect"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// TestSeedsMatchSingleSeedRuns pins -seeds N: the N seeds and their
// baselines, run as parallel pool jobs, give the same per-seed Results as
// N separate single-seed runs.
func TestSeedsMatchSingleSeedRuns(t *testing.T) {
	p, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Workload: p, InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 5}
	const n = 3
	jobs := seedJobs(cfg, n, true)
	if len(jobs) != 2*n {
		t.Fatalf("seedJobs listed %d jobs, want %d", len(jobs), 2*n)
	}
	results, errs := runner.New(2).RunAll(context.Background(), jobs)
	if err := runner.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j, mode := range []dram.Mode{dram.ModeAutoRFM, dram.ModeNone} {
			single := cfg
			single.Seed = cfg.Seed + uint64(i)
			single.Mode = mode
			want, err := sim.Run(single)
			if err != nil {
				t.Fatal(err)
			}
			if got := results[j*n+i]; !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d mode %v: -seeds Result differs from a single-seed run", single.Seed, mode)
			}
		}
	}
}
