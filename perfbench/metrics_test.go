package main

import (
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.9, 900, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.9); ok {
		t.Error("percentile of no samples is not flagged")
	}
}

func TestFlaggedPercentileIsPrintedAsFlagged(t *testing.T) {
	var m metricSet
	m.addPercentile("few", make([]float64, 99), 0.9, "ms")
	m.addPercentile("enough", make([]float64, 100), 0.9, "ms")
	var b strings.Builder
	m.print(&b, "")
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[0], "n=99") || !strings.Contains(lines[0], "FLAGGED") {
		t.Errorf("p90 of 99 samples printed as %q, want its count and a flag", lines[0])
	}
	if !strings.Contains(lines[1], "n=100") || strings.Contains(lines[1], "FLAGGED") {
		t.Errorf("p90 of 100 samples printed as %q, want its count and no flag", lines[1])
	}
}

func TestRatiosArePrintedWithTheirBase(t *testing.T) {
	var m metricSet
	m.addRatio("runner.cache_hit_ratio", 805, 1251, "ratio", "jobs")
	m.addRatio("tracker.select_ok_ratio", 0, 0, "ratio", "selections")
	m.addRatio("sim.build_share", 3.92087, 20.7214, "ratio", "s build/s wall")
	if v := m.list[0].value; v < 0.6434 || v > 0.6436 {
		t.Errorf("805/1251 = %v", v)
	}
	if v := m.list[1].value; v != 0 {
		t.Errorf("0/0 = %v, want 0", v)
	}
	var b strings.Builder
	m.print(&b, "")
	for _, want := range []string{"(805/1251 jobs)", "(0/0 selections)", "(3.92087/20.7214 s build/s wall)"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output lacks base %q:\n%s", want, b.String())
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median(4,1,2,3) = %v", got)
	}
}
