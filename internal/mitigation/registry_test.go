package mitigation

import (
	"testing"

	"autorfm/internal/rng"
)

// TestBuildAllocs pins what one build allocates once its FromSpec builder
// has built before: the policy itself and nothing for the spec, which every
// build rewinds and checks in full. A device reset rebuilds every bank's
// policy on every job.
func TestBuildAllocs(t *testing.T) {
	for _, name := range Names() {
		build, err := FromSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(1)
		if _, err := build(r); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := build(r); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("%s: %v allocations per build, want 1", name, got)
		}
	}
}
