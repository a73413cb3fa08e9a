package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profLayers are the prof.<layer> shares every traced run reports, in print
// order. They sum to 1: every sample lands in exactly one.
var profLayers = []string{
	"event", "cache", "cache.warm", "memctrl", "cpu", "dram", "tracker",
	"mitigation", "workload", "mapping", "cipher", "rng", "sim", "runner",
	"exp", "attack", "runtime.gc", "runtime.other", "other",
}

// repoLayers maps the repository's package paths to their layer name.
var repoLayers = map[string]string{}

func init() {
	for _, l := range profLayers {
		if !strings.Contains(l, ".") && l != "other" {
			repoLayers["autorfm/internal/"+l] = l
		}
	}
}

// attribute assigns one CPU sample, given its frames leaf first, to a layer:
//   - a runtime leaf is runtime.gc when the stack is in the collector
//     (a runtime.gc* frame, sweeping or scavenging), else runtime.other;
//   - otherwise the first frame in one of the repository's layers names the
//     layer, so a standard-library leaf (sort, math) counts for the layer
//     that called it, and the cache's Warm*/warm* functions count as
//     cache.warm;
//   - anything else (the benchmark itself, profile writing) is "other".
func attribute(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if isRuntime(pkgOf(frames[0])) {
		for _, f := range frames {
			if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
				strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
				return "runtime.gc"
			}
		}
		return "runtime.other"
	}
	for _, f := range frames {
		pkg := pkgOf(f)
		if pkg == "main" {
			return "other"
		}
		l, ok := repoLayers[pkg]
		if !ok {
			continue
		}
		if l == "cache" {
			name := strings.TrimPrefix(f, pkg+".")
			if i := strings.LastIndex(name, ")."); i >= 0 {
				name = name[i+2:]
			}
			if strings.HasPrefix(name, "Warm") || strings.HasPrefix(name, "warm") {
				return "cache.warm"
			}
		}
		return l
	}
	return "other"
}

// pkgOf returns the import path of a symbol name such as
// "autorfm/internal/cache.(*Cache).warmAt" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// wrapperFrames name the constructor wrappers whose inclusive CPU share
// the profile gives: a sample counts for the layer when a wrapper method is
// on its stack, which covers all host time spent behind that seam.
var wrapperFrames = map[string]string{
	"main.(*countingStream).":  "workload",
	"main.(*countingTracker).": "tracker",
	"main.(*countingPolicy).":  "mitigation",
}

// cpuShares is a CPU profile reduced to shares of its sampled CPU time.
type cpuShares struct {
	layer   map[string]float64 // exclusive, by attribute; sums to 1
	wrapped map[string]float64 // inclusive, behind each constructor wrapper
	samples int64
	cpu     float64 // sampled CPU seconds
}

// profileShares decodes a gzipped pprof CPU profile and reduces it to
// shares.
func profileShares(gz []byte) (cpuShares, error) {
	var out cpuShares
	p, err := decodeProfile(gz)
	if err != nil {
		return out, err
	}
	byLayer := map[string]int64{}
	wrapped := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			frames = append(frames, p.locFuncs[id]...)
		}
		byLayer[attribute(frames)] += s.value
		for prefix, l := range wrapperFrames {
			for _, f := range frames {
				if strings.HasPrefix(f, prefix) {
					wrapped[l] += s.value
					break
				}
			}
		}
		total += s.value
		out.samples += s.count
	}
	out.cpu = float64(total) / 1e9
	share := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(v) / float64(total)
	}
	out.layer = map[string]float64{}
	for _, l := range profLayers {
		out.layer[l] = share(byLayer[l])
	}
	out.wrapped = map[string]float64{}
	for _, l := range wrapperFrames {
		out.wrapped[l] = share(wrapped[l])
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // location ids, leaf first
	count int64    // first sample value (samples)
	value int64    // last sample value (CPU nanoseconds)
}

// decodeProfile parses the protobuf encoding of perftools.profiles.Profile
// (gzipped, as runtime/pprof writes it), reading samples, locations,
// functions and the string table.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	locLines := map[uint64][]uint64{} // location → function ids
	funcName := map[uint64]int64{}    // function id → string index
	var strs []string
	var samples []sample

	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count, s.value = vals[0], vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			if si := funcName[f]; si >= 0 && si < int64(len(strs)) {
				names[i] = strs[si]
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of a protobuf message, passing
// varint fields as v and length-delimited ones as b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (wire 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
