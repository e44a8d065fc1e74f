package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the gzip-compressed protobuf profiles that
// runtime/pprof writes, just deep enough to list each CPU sample's
// stack. Field numbers follow pprof's
// profile.proto: Profile{sample_type=1, sample=2, location=4,
// function=5, string_table=6}, Sample{location_id=1, value=2},
// Location{id=1, line=4}, Line{function_id=1}, Function{id=1, name=2},
// ValueType{type=1, unit=2}.

// cpuSample is one stack of a CPU profile: the function names from the
// innermost frame out (inlined frames included) and the CPU time.
type cpuSample struct {
	frames []string
	ns     int64
}

// readCPUProfile decodes a runtime/pprof CPU profile.
func readCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		units     []uint64 // string index of each sample type's unit
		samples   [][]byte
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var unit uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					unit = v
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
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
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile)")
	}

	out := make([]cpuSample, 0, len(samples))
	for _, sb := range samples {
		var locs, vals []uint64
		err := fields(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return packed(b, &locs)
			case 2:
				if b == nil {
					vals = append(vals, v)
					return nil
				}
				return packed(b, &vals)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			continue
		}
		cs := cpuSample{ns: int64(vals[valueIdx])}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				cs.frames = append(cs.frames, str(funcNames[f]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// packageOf extracts the import path from a Go symbol name:
// "repro/internal/sim.(*Engine).Run" → "repro/internal/sim",
// "runtime.mallocgc" → "runtime". Type parameters are cut first, since
// they may contain slashes and dots of their own.
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// fields walks the top-level fields of one protobuf message. Varint
// fields arrive as v (b == nil); length-delimited fields as b. Fixed
// 32- and 64-bit fields do not occur in the profile messages read here
// and are skipped.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := varint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := varint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// packed appends a packed repeated varint field's values to out.
func packed(b []byte, out *[]uint64) error {
	for len(b) > 0 {
		v, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*out = append(*out, v)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning the bytes consumed
// (0 on truncated or overlong input).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
