package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// profileLayers are the layers whose CPU share a traced run reports.
// runtime collects samples with no frame in this repository: the garbage
// collector, the scheduler, and network reads outside any handler.
var profileLayers = []string{
	"trace", "core", "lsq", "cache", "bpred", "checkpoint",
	"experiments", "resultcache", "jobstore", "dserve", "runtime",
}

// layerOf maps a function name to its layer, or "" for code outside the
// repository's packages. Support packages fold into the layer that drives
// them: xrand into trace, and the simulator's own helpers into core.
func layerOf(fn string) string {
	const repo = "dmdc/internal/"
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	if !strings.HasPrefix(fn, repo) {
		return ""
	}
	pkg := fn[len(repo):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "trace", "xrand":
		return "trace"
	case "lsq", "cache", "bpred", "checkpoint", "experiments", "resultcache", "jobstore", "dserve":
		return pkg
	}
	return "core"
}

// layerShares reads a CPU profile and returns each layer's share of the
// sampled CPU time, in percent. A sample belongs to its innermost frame
// in the repository — the layer's self time, including the standard
// library code it calls.
func layerShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if l := layerOf(p.strings[p.functions[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profile is the part of a pprof profile.proto that attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name index into strings
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

var errProto = errors.New("malformed profile")

// protoFields calls f for each field of a protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func protoFields(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := f(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints decodes a repeated varint field in either packed or unpacked
// form.
func varints(v uint64, b []byte, dst []uint64) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := protoFields(data, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := protoFields(b, func(f int, v uint64, bb []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(v, bb, s.locs)
				case 2:
					vals, err = varints(v, bb, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
