package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A small decoder for the gzipped profile.proto that runtime/pprof writes,
// reading only what folding needs: samples (location ids, values),
// locations (their lines' function ids), functions (name index) and the
// string table. It avoids shelling out to `go tool pprof` from a benchmark
// that must run in a bare checkout.

var errProto = errors.New("pprof: malformed profile")

// protoFields calls fn for every field of one message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields are skipped.
func protoFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			if err := fn(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, b := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << (7 * uint(i))
		if b < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// packed appends a repeated varint field that may arrive packed (b) or as
// a single value (v).
func packed(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

type pprofSample struct {
	locations []uint64 // leaf first
	values    []uint64
}

// cpuLayers are the layers CPU samples fold into, in BENCHMARK.json order;
// any other repro/internal package, and the benchmark's own frames, count
// as "other", and stacks with no repro frame at all (GC workers, the
// scheduler, the profiler) as "runtime_gc".
var cpuLayers = []string{
	"trie", "ibc", "host", "guest", "guestblock", "cryptoutil", "lightclient",
	"counterparty", "relayer", "netsim", "nodestore", "middleware", "sim",
	"telemetry", "runtime_gc", "other",
}

const internalPrefix = "repro/internal/"

// layerOfStack returns the layer of the innermost repro/internal frame,
// so std-lib and malloc leaves are charged to the layer that called them.
// names lists the stack's function names, leaf first.
func layerOfStack(names []string) string {
	for _, name := range names {
		if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/benchmark.") {
			return "other" // the benchmark's own taps and drivers (a test binary names them by path)
		}
		if !strings.HasPrefix(name, internalPrefix) {
			continue
		}
		pkg := name[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "runtime_gc"
}

// foldCPUProfile returns the CPU nanoseconds the profile charges to each
// layer.
func foldCPUProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var samples []pprofSample
	locFuncs := make(map[uint64][]uint64) // location id → function ids, innermost inline first
	funcName := make(map[uint64]uint64)   // function id → string index
	var strs []string
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s pprofSample
			if err := protoFields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locations, err = packed(s.locations, v, b)
				case 2:
					s.values, err = packed(s.values, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			if err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			if err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	weight := make(map[string]float64, len(cpuLayers))
	var names []string
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		names = names[:0]
		for _, loc := range s.locations {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					names = append(names, strs[idx])
				}
			}
		}
		weight[layerOfStack(names)] += float64(s.values[len(s.values)-1]) // cpu nanoseconds
	}
	return weight, nil
}
