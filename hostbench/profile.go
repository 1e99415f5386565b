package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// modules are the layers a CPU profile's self samples are grouped into.
// "other" takes whatever no layer claims (sim, elem, faults and stdlib
// packages outside the runtime group such as math and sort), so the shares
// add up to one.
var modules = []string{"fabric", "mpi", "gasnet", "rtgasnet", "rtmpi", "core", "app", "obs", "runtime", "other"}

// moduleOf maps a Go package path to its layer.
func moduleOf(pkg string) string {
	switch {
	case pkg == "cafmpi/internal/fabric":
		return "fabric"
	case pkg == "cafmpi/internal/mpi":
		return "mpi"
	case pkg == "cafmpi/internal/gasnet":
		return "gasnet"
	case pkg == "cafmpi/internal/rtgasnet":
		return "rtgasnet"
	case pkg == "cafmpi/internal/rtmpi":
		return "rtmpi"
	case pkg == "cafmpi/internal/core", pkg == "cafmpi/caf":
		return "core"
	case pkg == "cafmpi/internal/hpcc", pkg == "cafmpi/internal/cgpop":
		return "app"
	case strings.HasPrefix(pkg, "cafmpi/internal/obs"), pkg == "cafmpi/internal/trace":
		return "obs"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		pkg == "sync", strings.HasPrefix(pkg, "sync/"), strings.HasPrefix(pkg, "internal/"):
		return "runtime"
	}
	return "other"
}

// packageOf returns the package path of a fully qualified Go function name,
// e.g. "cafmpi/internal/fabric" for
// "cafmpi/internal/fabric.(*Endpoint).takeSpecLocked".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleSamples decodes a gzipped pprof CPU profile and counts its samples
// by the layer of each sample's leaf frame (the innermost inlined function
// at the first location). It reads only the profile fields it needs, so
// the benchmark stays on the standard library.
func moduleSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id -> leaf function id
		fnName   = map[uint64]int64{}  // function id -> string table index
		strtab   []string
		parseErr error
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			values := 0
			parseErr = firstErr(parseErr, pbFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // location_id (packed or not)
					pbRepeated(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2: // value: [samples, cpu nanoseconds]
					pbRepeated(v, b, func(x uint64) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					})
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveFn := false
			parseErr = firstErr(parseErr, pbFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if !haveFn {
						parseErr = firstErr(parseErr, pbFields(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn, haveFn = v, true
							}
						}))
					}
				}
			}))
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			parseErr = firstErr(parseErr, pbFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = firstErr(err, parseErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64, len(modules))
	for _, s := range samples {
		name := ""
		if idx, ok := fnName[locFn[s.leaf]]; ok && idx >= 0 && int(idx) < len(strtab) {
			name = strtab[idx]
		}
		out[moduleOf(packageOf(name))] += s.count
	}
	return out, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte)) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		buf = buf[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			buf = buf[n:]
			fn(field, v, nil)
		case 1: // fixed64
			if len(buf) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			fn(field, binary.LittleEndian.Uint64(buf), nil)
			buf = buf[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			fn(field, 0, buf[n:n+int(l)])
			buf = buf[n+int(l):]
		case 5: // fixed32
			if len(buf) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			fn(field, uint64(binary.LittleEndian.Uint32(buf)), nil)
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", key&7, field)
		}
	}
	return nil
}

// pbRepeated yields the elements of a repeated varint field, which the
// encoder writes either one element per key (b == nil) or packed.
func pbRepeated(v uint64, b []byte, fn func(uint64)) {
	if b == nil {
		fn(v)
		return
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return
		}
		fn(x)
		b = b[n:]
	}
}
