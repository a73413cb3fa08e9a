package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeByLeafPackage(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"autorfm/internal/cache.(*Cache).warmAt", "autorfm/internal/cache.(*Cache).Warm", "autorfm/internal/sim.prewarm"}, "cache.warm"},
		{[]string{"autorfm/internal/cache.(*Cache).WarmBatch.func1"}, "cache.warm"},
		{[]string{"autorfm/internal/cache.(*Cache).Access", "autorfm/internal/cpu.(*Core).advance"}, "cache"},
		{[]string{"autorfm/internal/event.(*Queue).Step", "autorfm/internal/sim.(*Machine).RunCtx"}, "event"},
		{[]string{"autorfm/internal/tracker.(*MINT).OnActivation", "autorfm/internal/dram.(*Bank).Activate"}, "tracker"},
		// A standard-library leaf counts for the layer that called it.
		{[]string{"sort.Search", "autorfm/internal/memctrl.(*Controller).pick"}, "memctrl"},
		// So does a repository package that is not a measured layer.
		{[]string{"autorfm/internal/stats.Mean", "autorfm/internal/exp.Fig13"}, "exp"},
		{[]string{"runtime.mallocgc", "autorfm/internal/dram.NewDevice"}, "runtime.other"},
		{[]string{"runtime.duffcopy", "autorfm/internal/attack.Run"}, "runtime.other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime.gc"},
		{[]string{"runtime.bgsweep"}, "runtime.gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "autorfm/internal/runner.(*Pool).Run"}, "runtime.other"},
		// The benchmark's own frames, wrappers included, are overhead.
		{[]string{"main.(*countingTracker).OnActivation", "autorfm/internal/dram.(*Bank).Activate"}, "other"},
		{[]string{"crypto/sha256.block", "main.quickSweep"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"autorfm/internal/cache.(*Cache).warmAt": "autorfm/internal/cache",
		"runtime.mallocgc":                       "runtime",
		"main.main":                              "main",
		"internal/runtime/maps.(*Map).Get":       "internal/runtime/maps",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package so the profile has samples to attribute.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestProfileSharesDecodeARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.samples < 5 {
		t.Skipf("only %d samples", got.samples)
	}
	sum := 0.0
	for _, l := range profLayers {
		sum += got.layer[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if got.layer["other"] < 0.5 {
		t.Errorf("benchmark-package spin counted %.2f as other, want most of it: %v", got.layer["other"], got.layer)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := profileShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
