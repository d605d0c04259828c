package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
)

// layers are the repository modules a CPU sample is charged to, plus the
// Go runtime. Everything else (standard library, syscalls, other repro
// packages such as core and apps) is charged to "other".
var layers = []string{
	"energy", "device", "isa", "memsim", "sim", "edb", "periph",
	"console", "scenario",
	"server", "cluster", "client", "wire", "tracecodec",
	"explore", "fleet",
	"runtime",
}

// packageOf returns the import path of a symbol name as pprof prints it,
// e.g. "repro/internal/energy.(*Supply).Step" -> "repro/internal/energy".
// Symbols with no package at all (aeshashbody, memeqbody) are the
// runtime's assembly and map to "runtime".
func packageOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime"
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps an import path to a layer name. System calls are the
// kernel's time, not the runtime's, so they stay in "other".
func layerOf(pkg string) string {
	if pkg == "internal/runtime/syscall" {
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest && l != "runtime" {
				return l
			}
		}
	}
	return "other"
}

// cpuShares buckets the flat (leaf-frame) CPU time of a gzipped pprof CPU
// profile by layer. The shares sum to 1 over layers plus "other".
func cpuShares(profile []byte) (map[string]float64, int, error) {
	flat, samples, err := flatByFunction(profile)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	byLayer := map[string]float64{}
	for fn, v := range flat {
		byLayer[layerOf(packageOf(fn))] += float64(v)
		total += float64(v)
	}
	shares := map[string]float64{}
	for l, v := range byLayer {
		shares[l] = ratio(v, total)
	}
	return shares, samples, nil
}

// flatByFunction decodes a gzipped profile.proto and sums each sample's
// last value (CPU nanoseconds for a CPU profile) under its leaf function.
// Only the fields this needs are decoded.
func flatByFunction(profile []byte) (map[string]int64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strtab   []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not; the first is the leaf
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2: // value; keep the last
					return eachVarint(v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	flat := map[string]int64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		name := "?"
		if idx > 0 && int(idx) < len(strtab) {
			name = strtab[idx]
		}
		flat[name] += s.value
	}
	return flat, len(samples), nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, passing varint fields as v and
// length-delimited fields as b. Fixed-width fields are skipped.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wt := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field given either one unpacked
// value (b == nil) or a packed run.
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcClock reads the runtime's cumulative GC and total CPU time.
func gcClock() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
