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

// A CPU profile is attributed to layers from outside the program: each
// sample belongs to the innermost frame on its stack that names a layer, so
// standard-library callees (flate, strconv, slices.SortFunc, memmove) are
// charged to the layer that called them. The decoder below reads just the
// parts of the pprof protobuf encoding that this needs, keeping the
// benchmark free of modules the repository does not already require.

// internalPrefix is the import-path prefix of the simulator's layers.
const internalPrefix = "iochar/internal/"

// tableLayers are the layers the benchmark reports self time for, in print
// order. Packages of iochar/internal outside this list are reported
// together as "other".
var tableLayers = []string{
	"compress", "mapred", "workloads", "datagen", "hdfs", "localfs",
	"pagecache", "disk", "netsim", "sim", "iostat",
}

// Pseudo-layers: the Go runtime's background work (GC mark workers, the
// sweeper and scavenger), the benchmark's own code and the profiler
// (tracing overhead), internal packages outside tableLayers, and samples
// nothing claims.
const (
	layerRuntime      = "runtime"
	layerTrace        = "trace"
	layerOther        = "other"
	layerUnattributed = ""
)

// layerAlias folds packages into the layer they serve: cpustat and stats
// exist only to compute the iostat-style series.
var layerAlias = map[string]string{"cpustat": "iostat", "stats": "iostat"}

// runtimeBackground are the entry points of the runtime's own goroutines.
// A sample under one of them (and under no layer frame) is runtime work the
// workload's allocations caused, not idle scheduling.
var runtimeBackground = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.forcegchelper", "runtime.runfinq", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.gcStart",
}

// frameLayer maps one function name to the layer it belongs to, or ok=false
// for frames that name no layer (standard library, runtime).
func frameLayer(fn string) (layer string, ok bool) {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if a, ok := layerAlias[pkg]; ok {
			pkg = a
		}
		for _, l := range tableLayers {
			if l == pkg {
				return l, true
			}
		}
		return layerOther, true
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."):
		return layerTrace, true
	}
	return "", false
}

// bucket attributes one stack, given leaf first, to a layer.
func bucket(stack []string) string {
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		for _, bg := range runtimeBackground {
			if fn == bg {
				return layerRuntime
			}
		}
	}
	return layerUnattributed
}

// attribution is a profile reduced to per-layer sample weights.
type attribution struct {
	total  int64
	layers map[string]int64
	// marks holds the weight of samples whose stack passes through a
	// function with the given name prefix (mapred's sort and merge).
	marks map[string]int64
}

// Function-name prefixes the profile is additionally split by.
const (
	markSort  = internalPrefix + "mapred.sortKVEntries"
	markMerge = internalPrefix + "mapred.mergeRuns"
)

func attribute(stacks [][]string, weights []int64) attribution {
	a := attribution{layers: map[string]int64{}, marks: map[string]int64{}}
	for i, st := range stacks {
		w := weights[i]
		a.total += w
		a.layers[bucket(st)] += w
		for _, m := range []string{markSort, markMerge} {
			for _, fn := range st {
				if strings.HasPrefix(fn, m) {
					a.marks[m] += w
					break
				}
			}
		}
	}
	return a
}

// share returns w as a fraction of the profile's total weight.
func (a attribution) share(w int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(w) / float64(a.total)
}

// coverage is the share of samples attributed to a named layer.
func (a attribution) coverage() float64 {
	return a.share(a.total - a.layers[layerUnattributed])
}

// parseProfile decodes a (gzipped) pprof CPU profile into stacks of
// function names, leaf first, with inlined frames expanded innermost first,
// and one weight per stack: the profile's last sample value (CPU
// nanoseconds for runtime/pprof).
func parseProfile(data []byte) (stacks [][]string, weights []int64, err error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string-table index
		strtab    []string
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, u := range pbUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && i < int64(len(strtab)) {
					st = append(st, strtab[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped; pprof uses none the decoder needs.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
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
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field that may arrive packed (bytes)
// or as a single unpacked value.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
