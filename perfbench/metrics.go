package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one named measurement. note carries what a reader needs to
// trust the number: the sample count, or the base of a ratio.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
}

func (s *metricSet) add(name string, value float64, unit string) {
	s.list = append(s.list, metric{name: name, value: value, unit: unit})
}

func (s *metricSet) addNote(name string, value float64, unit, note string) {
	s.list = append(s.list, metric{name: name, value: value, unit: unit, note: note})
}

// addRatio records num/den (0 when den is 0) and always prints the base.
func (s *metricSet) addRatio(name string, num, den float64, unit, baseUnit string) {
	s.list = append(s.list, ratio(name, num, den, unit, baseUnit))
}

// ratio builds a ratio metric whose note is its base, e.g. "805/1251 jobs".
func ratio(name string, num, den float64, unit, baseUnit string) metric {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	note := fmt.Sprintf("%s/%s", trimFloat(num), trimFloat(den))
	if baseUnit != "" {
		note += " " + baseUnit
	}
	return metric{name: name, value: v, unit: unit, note: note}
}

// trimFloat prints integers without a fraction and others with 6 significant
// digits.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.list {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one line per metric: name, value, unit and note.
func (s *metricSet) print(w io.Writer, prefix string) {
	for _, m := range s.list {
		line := fmt.Sprintf("%s%-28s %16.6f %-6s", prefix, m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether at least ten samples lie beyond it. A percentile with
// fewer is reported but flagged.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= 10
}

// addPercentile records the q-quantile of the sample, noting its count and
// flagging it when too few samples lie beyond it.
func (s *metricSet) addPercentile(name string, xs []float64, q float64, unit string) {
	v, ok := percentile(xs, q)
	note := fmt.Sprintf("n=%d", len(xs))
	if !ok {
		note += ", FLAGGED: fewer than ten samples beyond this percentile"
	}
	s.addNote(name, v, unit, note)
}

// median returns the middle value (mean of the two middle ones for an even
// count), or 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
