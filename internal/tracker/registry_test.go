package tracker

import (
	"testing"

	"autorfm/internal/rng"
)

// TestBuildAllocs pins what one build allocates once its FromSpec builder
// has built before: the tracker's own storage and nothing for the spec,
// which every build rewinds and checks in full. A device reset rebuilds
// every bank's tracker on every job, so an allocation added here is paid
// 64 times per simulated job.
func TestBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want float64
	}{
		{"mint", 1},
		{"mint(window=8, recursive=true)", 1},
		{"mithril(entries=64)", 3},
		{"graphene(entries=64, threshold=8)", 5},
		{"pride(window=4, fifo=4)", 2},
		{"parfm", 2},
		{"para(p=0.5)", 1},
		{"twice", 3},
	} {
		build, err := FromSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		env := Env{TH: 4, R: rng.New(1)}
		if _, err := build(env); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := build(env); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: %v allocations per build, want %v", tc.spec, got, tc.want)
		}
	}
}
