package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzip-compressed protobuf that runtime/pprof writes,
// just deep enough to attribute CPU samples to packages: samples →
// locations → functions → names. Field numbers are those of
// profile.proto (github.com/google/pprof/proto/profile.proto).

// pbField is one decoded protobuf field: a varint (wire type 0) or a
// length-delimited payload (wire type 2). Fixed-width fields are
// skipped; the profile format has none this reader needs.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("pprof: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, b, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			if n > uint64(len(rest)) {
				return nil, fmt.Errorf("pprof: field %d overruns its message", f.num)
			}
			f.b, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints appends a repeated integer field's values: one value when the
// field came unpacked, all of them when packed.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// cpuSample is one distinct stack of a CPU profile: function names leaf
// first (inlined frames expanded), how many profiler ticks hit it (the
// first value) and their weight (the last value: CPU nanoseconds in a
// Go CPU profile).
type cpuSample struct {
	stack  []string
	count  int64
	weight int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strtab   []string
		funcName = map[uint64]uint64{}   // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
		rawSamp  [][]byte
	)
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			rawSamp = append(rawSamp, f.b)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					line, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.b))
		}
	}
	samples := make([]cpuSample, 0, len(rawSamp))
	for _, rs := range rawSamp {
		fs, err := pbFields(rs)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, sf := range fs {
			switch sf.num {
			case 1: // location_id, leaf first
				if locs, err = pbUints(locs, sf); err != nil {
					return nil, err
				}
			case 2: // value
				if vals, err = pbUints(vals, sf); err != nil {
					return nil, err
				}
			}
		}
		if len(vals) == 0 {
			continue
		}
		s := cpuSample{count: int64(vals[0]), weight: int64(vals[len(vals)-1])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i < uint64(len(strtab)) {
					s.stack = append(s.stack, strtab[i])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// funcPackage returns the import path of a symbol such as
// "sharqfec/internal/eventq.(*Queue).At" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

const internalPrefix = "sharqfec/internal/"

// Layers that own a *.cpu_share row. A package under internal/ that is
// not listed (faults, simrand, packet, …) counts as "other"; scoping is
// charged to topology, whose zone layout it indexes.
var shareLayers = map[string]string{
	"eventq": "eventq", "netsim": "netsim", "fec": "fec", "core": "core",
	"session": "session", "telemetry": "telemetry", "ratecontrol": "ratecontrol",
	"stats": "stats", "topology": "topology", "scoping": "topology",
}

// Runtime frames that mark a sample as allocation or collection work,
// and as scheduler or wait work. A sample whose leaf is in the runtime
// is charged by the first such frame anywhere on its stack; before
// that, a leaf inside the map implementation is charged to runtime.map.
var (
	allocFrames = []string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.(*mheap).alloc", "runtime.sweepone", "runtime.wbBufFlush",
		"gcWriteBarrier"}
	schedFrames = []string{"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.mcall", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.chansend", "runtime.chanrecv", "runtime.usleep", "runtime.osyield", "runtime.mstart",
		"runtime.semasleep", "runtime.semawakeup", "runtime.wakep", "runtime.startm", "runtime.stopm"}
	mapLeaves = []string{"runtime.map", "runtime.memhash", "runtime.strhash", "runtime.aeshash", "aeshash"}
)

func stackHas(stack []string, frames []string) bool {
	for _, fn := range stack {
		for _, f := range frames {
			if fn == f || strings.HasPrefix(fn, f+".") {
				return true
			}
		}
	}
	return false
}

// leafOf returns a stack's innermost function and its package, skipping
// a preemption trampoline on top: the time belongs to the function it
// interrupted.
func leafOf(stack []string) (leaf, pkg string) {
	for len(stack) > 0 && stack[0] == "runtime.asyncPreempt" {
		stack = stack[1:]
	}
	if len(stack) == 0 {
		return "", ""
	}
	leaf = stack[0]
	if !strings.Contains(leaf, ".") {
		return leaf, "runtime" // assembly helpers such as gcWriteBarrier, aeshashbody
	}
	return leaf, funcPackage(leaf)
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// sampleLayer names the ledger row a sample's self time belongs to: the
// layer of the leaf function's package, with runtime leaves split into
// map operations, allocation/collection, scheduling/waiting, and the
// rest.
func sampleLayer(stack []string) string {
	leaf, pkg := leafOf(stack)
	if leaf == "" {
		return "other"
	}
	if rest, ok := strings.CutPrefix(pkg, internalPrefix); ok {
		first, _, _ := strings.Cut(rest, "/")
		if layer, ok := shareLayers[first]; ok {
			return layer
		}
		return "other"
	}
	if !isRuntimePkg(pkg) {
		return "other"
	}
	if pkg == "internal/runtime/maps" {
		return "runtime.map"
	}
	for _, p := range mapLeaves {
		if strings.HasPrefix(leaf, p) {
			return "runtime.map"
		}
	}
	switch {
	case stackHas(stack, allocFrames):
		return "runtime.alloc"
	case stackHas(stack, schedFrames):
		return "runtime.sched"
	}
	return "other"
}

// cpuShares returns each ledger row's share of the profile's CPU time,
// keyed by metric name ("eventq.cpu_share", …, "other.cpu_share"), and
// the number of profiler ticks behind them. The shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	samples, err := parseCPUProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total, ticks int64
	for _, s := range samples {
		byLayer[sampleLayer(s.stack)] += s.weight
		total += s.weight
		ticks += s.count
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof: profile holds no samples")
	}
	shares := map[string]float64{}
	for _, m := range perLayer {
		if layer, ok := strings.CutSuffix(m.Name, ".cpu_share"); ok {
			shares[m.Name] = float64(byLayer[layer]) / float64(total)
		}
	}
	return shares, int(ticks), nil
}
