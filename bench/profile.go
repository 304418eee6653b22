package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"regexp"
	"slices"
	"strings"
)

// profSample is one CPU-profile sample: the call stack as function names,
// leaf first, and the CPU time it stands for.
type profSample struct {
	Stack []string
	Count int64
	CPUNS int64
}

// protoFields walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in data.
func protoFields(b []byte, fn func(field int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
			fn(field, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			fn(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// parseProfile decodes the gzip-compressed pprof protobuf that
// runtime/pprof writes, keeping only what the layer fold needs: each
// sample's function-name stack (inlined frames expanded) and its CPU
// nanoseconds (the profile's second value).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		inner   error
	)
	sub := func(b []byte, fn func(int, uint64, []byte)) {
		if err := protoFields(b, fn); err != nil && inner == nil {
			inner = err
		}
	}
	err = protoFields(raw, func(field int, _ uint64, data []byte) {
		switch field {
		case 2: // Sample
			var s rawSample
			sub(data, func(f int, v uint64, d []byte) {
				switch f {
				case 1:
					s.locs = varints(s.locs, v, d)
				case 2:
					s.vals = varints(s.vals, v, d)
				}
			})
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			sub(data, func(f int, v uint64, d []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line
					sub(d, func(lf int, lv uint64, _ []byte) {
						if lf == 1 {
							fns = append(fns, lv)
						}
					})
				}
			})
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			sub(data, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("pprof: sample without cpu value")
		}
		ps := profSample{Count: int64(s.vals[0]), CPUNS: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ps.Stack = append(ps.Stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// layers are the internal/ packages that get a caused-CPU metric of their
// own; every other mccs/ package and the benchmark itself fold into
// "other".
var layers = []string{
	"sim", "netsim", "transport", "proxy", "mccsd", "gpusim", "collective",
	"control", "policy", "tuner", "orchestrator", "workload", "trace",
	"telemetry", "diagnosis", "remediation", "cluster", "topo", "chaos",
}

// cpuLayers are all the keys layerOf returns: the layers, "other" for the
// rest of the program, and the two kinds of stack with no program frame.
var cpuLayers = append(append([]string(nil), layers...), "other", "runtime.gc_bg", "runtime.idle")

// categories partition the same samples by what the CPU was doing.
var categories = []string{"runtime.handoff", "runtime.malloc", "runtime.gc", "runtime.other", "mccs.self"}

var (
	handoffRE = regexp.MustCompile(`^runtime\.(chansend|chanrecv|park_m$|ready$|goready$|schedule$|findRunnable$|wakep$|casgstatus$)`)
	mallocRE  = regexp.MustCompile(`^runtime\.(mallocgc|newobject$|makeslice|growslice$|memclr)`)
	gcRE      = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcAssist|scanobject$|sweep|bgsweep$|bgscavenge$|gcDrain)`)
	gcBgRE    = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|bgsweep$|bgscavenge$)`)
)

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/")
}

// layerOf charges a sample to the nearest mccs/internal/<pkg> frame up
// its stack, so runtime work a layer triggers (its mallocs, its channel
// sends) is charged to that layer. Stacks with no program frame are the
// background collector or an idle/handing-off scheduler.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "mccs/internal/"); ok {
			if pkg := rest[:strings.IndexAny(rest+".", "./")]; slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "mccs/") || strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	for _, fn := range stack {
		if gcBgRE.MatchString(fn) {
			return "runtime.gc_bg"
		}
	}
	return "runtime.idle"
}

// categoryOf classifies a sample by its leaf: program (or library) code
// is mccs.self; a runtime leaf takes the category of the nearest
// categorised runtime frame at or above it, so the allocator's and the
// collector's internals count with mallocgc and the mark worker.
func categoryOf(stack []string) string {
	if len(stack) == 0 || !isRuntime(stack[0]) {
		return "mccs.self"
	}
	for _, fn := range stack {
		switch {
		case !isRuntime(fn):
			return "runtime.other"
		case gcRE.MatchString(fn):
			return "runtime.gc"
		case mallocRE.MatchString(fn):
			return "runtime.malloc"
		case handoffRE.MatchString(fn):
			return "runtime.handoff"
		}
	}
	return "runtime.other"
}

// foldProfile sums CPU nanoseconds per layer and per category. Both maps
// sum to total.
func foldProfile(samples []profSample) (byLayer, byCategory map[string]int64, total int64) {
	byLayer, byCategory = map[string]int64{}, map[string]int64{}
	for _, s := range samples {
		byLayer[layerOf(s.Stack)] += s.CPUNS
		byCategory[categoryOf(s.Stack)] += s.CPUNS
		total += s.CPUNS
	}
	return byLayer, byCategory, total
}
