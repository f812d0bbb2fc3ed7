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

// The CPU profile is folded into one bucket per simulator layer. Each
// sample goes to the innermost frame on its stack that belongs to a
// graybox package or to this benchmark; helper packages (ring, stats)
// pass the sample on to their caller.
var pkgBucket = map[string]string{
	"sim":       "sim",
	"simos":     "simos",
	"cache":     "cache",
	"vm":        "vm",
	"mem":       "mem",
	"fs":        "fs",
	"disk":      "disk",
	"core":      "icl",
	"apps":      "workload",
	"workload":  "workload",
	"audit":     "audit",
	"telemetry": "telemetry",
	"ring":      "",
	"stats":     "",
}

// cpuBuckets lists the buckets in report order.
var cpuBuckets = []string{"handoff", "sim", "simos", "cache", "vm", "mem", "fs", "disk",
	"icl", "workload", "audit", "telemetry", "gc", "bench", "other"}

// handoffFrames are the runtime functions of a goroutine switch. A
// sample whose frames below its sim frame include one of them is the
// park/wake channel handoff, not engine work.
var handoffFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.gopark",
	"runtime.goready", "runtime.schedule", "runtime.mcall", "runtime.park_m", "runtime.findRunnable",
	"runtime.ready", "runtime.send", "runtime.recv", "runtime.futex", "runtime.notewakeup",
	"runtime.wakep", "runtime.startm", "runtime.goexit0", "runtime.newproc"}

// gcFrames mark the garbage collector's workers and assists.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone"}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf classifies one stack, given leaf first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if hasPrefixAny(fn, gcFrames) {
			return "gc"
		}
	}
	switchFrames := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fn, "graybox/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			top, _, _ := strings.Cut(pkg, "/")
			b, known := pkgBucket[top]
			if !known {
				return "other"
			}
			if b == "" {
				continue
			}
			if b == "sim" && switchFrames {
				return "handoff"
			}
			return b
		}
		if hasPrefixAny(fn, handoffFrames) {
			switchFrames = true
		}
	}
	// No simulator frame at all: the scheduler's own stacks, reached
	// when a parked process goroutine gives up its thread.
	return "handoff"
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds in each bucket.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.strings[p.funcs[fid]])
			}
		}
		out[bucketOf(stack)] += s.cpuNS
	}
	return out, nil
}

// profile is the part of a pprof profile the folding needs.
type profile struct {
	strings []string
	funcs   map[uint64]int64    // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

type sample struct {
	locs  []uint64 // leaf first
	cpuNS int64
}

// decodeProfile reads the profile.proto fields foldProfile uses:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2); Location.id (1), .line (4);
// Line.function_id (1); Function.id (1), .name (2). The CPU value is
// the sample's last value (samples/count, then cpu/nanoseconds).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.cpuNS = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcs {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("function name out of the string table")
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				if _, ok := p.funcs[fid]; !ok {
					return nil, fmt.Errorf("location %d names unknown function %d", id, fid)
				}
			}
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field's value: v for one
// unpacked element, or every varint in d when the field is packed.
func appendPacked(dst []uint64, v uint64, d []byte) []uint64 {
	if d == nil {
		return append(dst, v)
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		d = d[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: with the
// value for varints, and with the bytes (non-nil) for length-delimited
// fields. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
