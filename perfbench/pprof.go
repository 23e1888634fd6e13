package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps a padc package path to its layer name. A sample belongs
// to the package of its innermost padc/... frame.
var layerOf = map[string]string{
	"padc":                              "sim", // the root facade: config lowering and Run
	"padc/internal/cpu":                 "cpu",
	"padc/internal/cache":               "cache",
	"padc/internal/prefetch":            "prefetch",
	"padc/internal/core":                "core",
	"padc/internal/memctrl":             "memctrl",
	"padc/internal/memctrl/sched":       "memctrl",
	"padc/internal/memctrl/memsidepf":   "memsidepf",
	"padc/internal/dram":                "dram",
	"padc/internal/dram/refresh":        "dram",
	"padc/internal/topology":            "topology",
	"padc/internal/sim":                 "sim",
	"padc/internal/stats":               "sim",
	"padc/internal/trace":               "trace",
	"padc/internal/workload":            "trace",
	"padc/internal/telemetry":           "telemetry",
	"padc/internal/telemetry/flight":    "telemetry",
	"padc/internal/telemetry/lifecycle": "telemetry",
	"padc/internal/exp":                 "exp",
	"padc/internal/runner":              "runner",
	"padc/internal/sweepd":              "sweepd",
}

// shareLayers are the layers whose host share is reported, in print
// order; "runtime" holds samples with no padc frame but a runtime one,
// "other" (not reported) the rest.
var shareLayers = []string{
	"cpu", "sim", "cache", "prefetch", "core", "memctrl", "memsidepf", "dram",
	"topology", "trace", "telemetry", "exp", "runner", "sweepd", "runtime",
}

// gcPrefixes mark a sample as garbage-collector work.
var gcPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.gcMarkDone",
}

// isRuntime reports a Go runtime frame, counting the race detector's
// (a -race build runs its checks on the system stack, so those samples
// carry no Go caller).
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "__tsan") || strings.HasPrefix(fn, "racecall")
}

// hostShares is a CPU profile folded by layer.
type hostShares struct {
	total   int64            // sampled CPU nanoseconds
	byLayer map[string]int64 // nanoseconds per layer; "other" for the rest
	gc      int64
	samples int
}

func (h *hostShares) share(layer string) float64 {
	return ratio(float64(h.byLayer[layer]), float64(h.total))
}

func (h *hostShares) set(rep *report) {
	for _, l := range shareLayers {
		rep.set(l+".host_share", h.share(l), "ratio")
	}
	rep.set("runtime.gc_share", ratio(float64(h.gc), float64(h.total)), "ratio")
}

// packageOf returns the import path of a Go function symbol, such as
// "padc/internal/cpu" for "padc/internal/cpu.(*Core).Tick".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and folds its samples by layer.
func attributeProfile(gz []byte) (*hostShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	h := &hostShares{byLayer: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		h.total += v
		h.samples++
		layer, gc := "", false
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				name := p.funcNames[fid]
				for _, g := range gcPrefixes {
					gc = gc || strings.HasPrefix(name, g)
				}
				if layer != "" {
					continue
				}
				if strings.HasPrefix(name, "padc.") || strings.HasPrefix(name, "padc/") {
					if l, ok := layerOf[packageOf(name)]; ok {
						layer = l
					} else {
						layer = "other"
					}
				}
			}
		}
		if layer == "" {
			layer = "other"
			for _, loc := range s.locs {
				for _, fid := range p.locFuncs[loc] {
					if isRuntime(p.funcNames[fid]) {
						layer = "runtime"
					}
				}
			}
		}
		h.byLayer[layer] += v
		if gc {
			h.gc += v
		}
	}
	return h, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: a varint value or a byte slice.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields splits one message into its fields (wire types 0, 1, 2 and 5).
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = varint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return nil, errTruncated
			}
			b = b[size:]
		case 2:
			l, n, err := varint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated varint field in either packed or unpacked form.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := varint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sf, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, x := range sf {
				if x.num != 1 && x.num != 2 {
					continue // labels
				}
				vs, err := varints(x)
				if err != nil {
					return nil, err
				}
				if x.num == 1 {
					s.locs = append(s.locs, vs...)
					continue
				}
				for _, v := range vs {
					s.values = append(s.values, int64(v))
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch x.num {
				case 1:
					id = x.v
				case 4: // line
					linef, err := fields(x.data)
					if err != nil {
						return nil, err
					}
					for _, y := range linef {
						if y.num == 1 {
							fns = append(fns, y.v)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			ff, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.v
				case 2:
					name = x.v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}
	for id, si := range funcName {
		if si < uint64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}
