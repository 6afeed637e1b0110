package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets of the CPU-share metrics: the simulator's
// layers plus the Go runtime. A sample goes to the innermost simulator
// layer on its stack, so standard-library work and allocation a layer
// calls for (JSON decoding in service, mallocgc under eventq) count for
// that layer. A stack with no layer on it goes to runtime when its leaf is
// in the runtime (garbage-collection workers, the scheduler, the
// benchmark's own allocation) and to no bucket otherwise.
var cpuModules = []string{
	"eventq", "noc", "fastnet", "pdes", "system", "collectives",
	"workload", "graph", "modelgen", "compute", "service", "runtime",
}

// moduleOf maps a fully qualified function name to its cpuModules bucket,
// or "" when it belongs to none.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "astrasim/internal/"); ok {
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
	}
	return ""
}

// bucketOf returns the cpuModules bucket of a stack of function names,
// innermost first, or "" when it belongs to none.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" && m != "runtime" {
			return m
		}
	}
	if len(stack) > 0 && moduleOf(stack[0]) == "runtime" {
		return "runtime"
	}
	return ""
}

// cpuShares buckets a gzipped pprof CPU profile by bucketOf of each
// sample's stack and returns each module's share of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		total += float64(s.count)
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.funcNames[fn])
			}
		}
		if m := bucketOf(stack); m != "" {
			shares[m] += float64(s.count)
		}
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// The decoder below reads the few fields of profile.proto the bucketing
// needs: samples (location ids, innermost first, and the sample count),
// locations (the functions of their lines, inlined callees first),
// functions (name) and the string table.

type pSample struct {
	locs  []uint64
	count int64
}

type pProfile struct {
	samples   []pSample
	locFuncs  map[uint64][]uint64 // location id -> function ids of its lines
	funcNames map[uint64]string   // function id -> name
}

type pbField struct {
	num   int
	wire  int
	value uint64 // varint value
	data  []byte // length-delimited payload
}

var errProto = errors.New("malformed CPU profile")

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// fields splits one protobuf message into its fields.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n, err = readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints decodes a repeated integer field, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*pProfile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &pProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]uint64{}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s pSample
			for _, sf := range sub {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0])
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.value
				case 4:
					line, err := fields(sf.data)
					if err != nil {
						return nil, err
					}
					for _, lf := range line {
						if lf.num == 1 {
							fns = append(fns, lf.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.value
				case 2:
					name = sf.value
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
