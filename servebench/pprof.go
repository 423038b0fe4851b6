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

// sharePackages maps the packages whose CPU self-time share the traced
// run reports.
var sharePackages = []struct{ name, pkg string }{
	{"geometry", "mpq/internal/geometry"},
	{"region", "mpq/internal/region"},
	{"pwl", "mpq/internal/pwl"},
	{"core", "mpq/internal/core"},
	{"index", "mpq/internal/index"},
	{"selection", "mpq/internal/selection"},
	{"encoding_json", "encoding/json"},
}

// cpuShares decodes a runtime/pprof CPU profile and returns, per
// reported package, its share of all sampled CPU time spent in its own
// functions (self time: the innermost frame of each sample), and its
// cumulative share (samples with the package anywhere on the stack).
func cpuShares(gz []byte) (self, cum map[string]float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	selfNs, cumNs := map[string]int64{}, map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		for _, sp := range sharePackages {
			if strings.HasPrefix(p.funcOf(s.locs[0]), sp.pkg+".") {
				selfNs[sp.name] += v
			}
			for _, loc := range s.locs {
				if strings.HasPrefix(p.funcOf(loc), sp.pkg+".") {
					cumNs[sp.name] += v
					break
				}
			}
		}
	}
	self, cum = map[string]float64{}, map[string]float64{}
	for _, sp := range sharePackages {
		self[sp.name] = ratio(float64(selfNs[sp.name]), float64(total))
		cum[sp.name] = ratio(float64(cumNs[sp.name]), float64(total))
	}
	return self, cum, nil
}

// The subset of profile.proto (github.com/google/pprof) needed for
// self-time attribution.
type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strs     []string
}

func (p *profile) funcOf(loc uint64) string {
	i := p.funcName[p.locFunc[loc]]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// field is one decoded protobuf field: a varint or a byte slice.
type field struct {
	num   int
	wire  int
	varin uint64
	bytes []byte
}

func fields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			f.varin, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed or not.
func varints(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varin), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("cpu profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(f field) (err error) {
		switch f.num {
		case 2: // sample
			var s profSample
			err = fields(f.bytes, func(g field) (err error) {
				switch g.num {
				case 1:
					s.locs, err = varints(g, s.locs)
				case 2:
					var vs []uint64
					vs, err = varints(g, nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
		case 4: // location
			var id, fn uint64
			first := true
			err = fields(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varin
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return fields(g.bytes, func(h field) error {
							if h.num == 1 {
								fn = h.varin
							}
							return nil
						})
					}
				}
				return nil
			})
			p.locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err = fields(f.bytes, func(g field) error {
				switch g.num {
				case 1:
					id = g.varin
				case 2:
					name = int64(g.varin)
				}
				return nil
			})
			p.funcName[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(f.bytes))
		}
		return err
	})
	return p, err
}
