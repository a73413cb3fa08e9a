package main

import (
	"strings"
	"testing"
	"time"
)

// TestDiffGate pins the wall-time gate: a regression within tolerance
// passes, one beyond it fails, sub-min-wall rows are noise, and rows present
// in only one report are listed but never fail the diff.
func TestDiffGate(t *testing.T) {
	ms := int64(time.Millisecond)
	base := &report{Experiments: []experiment{
		{ID: "fig3", WallNS: 1000 * ms},
		{ID: "appb", WallNS: 10 * ms},
		{ID: "gone", WallNS: 100 * ms},
	}}
	fresh := &report{Experiments: []experiment{
		{ID: "fig3", WallNS: 1100 * ms}, // +10%: within tolerance
		{ID: "appb", WallNS: 40 * ms},   // 4x, but both below -min-wall
		{ID: "tab5", WallNS: 500 * ms},  // no baseline row
	}}
	var out strings.Builder
	if diff(&out, base, fresh, 0.25, 50*time.Millisecond) {
		t.Fatalf("in-tolerance diff failed:\n%s", out.String())
	}
	s := out.String()
	for _, want := range []string{"(noise)", "new", "gone", "only in baseline"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "REGRESSED") {
		t.Errorf("in-tolerance rows marked as regressions:\n%s", s)
	}

	fresh.Experiments[0].WallNS = 2000 * ms
	out.Reset()
	if !diff(&out, base, fresh, 0.25, 50*time.Millisecond) {
		t.Fatalf("2x regression not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("regressed row not marked:\n%s", out.String())
	}
}
