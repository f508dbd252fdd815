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

// bucketProfile decodes a runtime/pprof CPU profile and returns the share
// (in %) of samples in each of cpuBuckets. A sample belongs to the
// package of its leaf function; runtime leaves are split by what the
// runtime was doing (see runtimeBucket).
func bucketProfile(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		var stack []string // leaf first
		for _, loc := range s.locs {
			stack = append(stack, p.locations[loc]...)
		}
		if len(stack) == 0 || len(s.values) == 0 {
			continue
		}
		counts[bucketOf(stack)] += s.values[0]
		total += s.values[0]
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(counts[b]) / float64(total)
		}
	}
	return out, nil
}

// simPackages are the hscsim packages that get a bucket of their own.
var simPackages = map[string]bool{
	"sim": true, "noc": true, "core": true, "corepair": true, "gpucache": true, "gpu": true,
	"cpu": true, "prog": true, "memdata": true, "cachearray": true, "msg": true,
	"engine": true, "fleet": true, "verify": true, "protocheck": true,
}

// bucketOf names the bucket of one sample's stack (leaf first).
func bucketOf(stack []string) string {
	pkg := packageOf(stack[0])
	if isRuntime(pkg) {
		if b, ok := runtimeBucket(stack); ok {
			return b
		}
		// A runtime helper (memmove, hashing, …) called from user
		// code belongs to its caller.
		for _, fn := range stack[1:] {
			if p := packageOf(fn); !isRuntime(p) {
				pkg = p
				break
			}
		}
	}
	switch {
	case strings.HasPrefix(pkg, "hscsim/internal/"):
		name := strings.TrimPrefix(pkg, "hscsim/internal/")
		if simPackages[name] {
			return name
		}
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case strings.HasSuffix(pkg, "/sha256"):
		return "crypto_sha256"
	}
	return "other"
}

// runtimeBucket classifies a sample whose leaf is in the runtime: garbage
// collection (workers, assists, write barriers), allocation, map
// operations, or scheduling. Scheduling under
// the workload-coroutine handoff functions of internal/prog is the
// handoff cost and gets its own bucket.
func runtimeBucket(stack []string) (string, bool) {
	has := func(pred func(string) bool) bool {
		for _, fn := range stack {
			if pred(fn) {
				return true
			}
		}
		return false
	}
	switch {
	case has(func(fn string) bool {
		for _, p := range []string{"runtime.gc", "gcWriteBarrier", "runtime.wbBuf", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"} {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}):
		return "runtime_gc", true
	case has(func(fn string) bool { return fn == "runtime.mallocgc" }):
		return "runtime_malloc", true
	case has(func(fn string) bool {
		return strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.")
	}):
		return "runtime_map", true
	case has(isSchedFrame):
		if has(func(fn string) bool { return strings.HasPrefix(fn, "hscsim/internal/prog.") }) {
			return "prog_handoff", true
		}
		return "runtime_sched", true
	}
	return "", false
}

// isSchedFrame reports whether fn is goroutine scheduling or channel
// synchronisation in the runtime.
func isSchedFrame(fn string) bool {
	for _, p := range []string{
		"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.selectgo",
		"runtime.chansend", "runtime.chanrecv", "runtime.futex", "runtime.notesleep",
		"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.newproc", "runtime.lock2", "runtime.unlock2", "runtime.casgstatus",
		"runtime.execute", "runtime.gosched", "runtime.netpoll", "runtime.usleep", "runtime.osyield",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isRuntime(pkg string) bool {
	return pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") ||
		strings.HasPrefix(pkg, "internal/runtime") || pkg == "internal/abi" || pkg == "internal/bytealg"
}

// packageOf extracts the import path from a symbol such as
// "hscsim/internal/sim.(*Engine).step" or, for generic code,
// "hscsim/internal/cachearray.(*Array[go.shape.struct { … }]).Peek".
// Assembly symbols without a package ("memeqbody") yield "".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return head[:slash+1+dot]
}

// profile is the part of profile.proto bucketProfile needs.
type profile struct {
	samples   []sample
	locations map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses a gzipped profile.proto message: samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples   []sample
		locLines  = make(map[uint64][]uint64) // location → function ids
		funcNames = make(map[uint64]int64)    // function → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
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
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locations: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		for _, f := range fns {
			if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
				p.locations[loc] = append(p.locations[loc], strs[i])
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every top-level field of a protobuf message:
// v carries varint and fixed values, b the bytes of length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
