package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// A runtime/pprof CPU profile is a gzipped profile.proto message. The
// benchmark reads the few fields it needs with a minimal protobuf wire
// decoder instead of pulling in a profile library, and folds each
// sample into the layer of the function it is charged to.

// Field numbers from profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// profFunc is one symbol of a profile.
type profFunc struct {
	name, file string
}

// cpuProfile is a decoded CPU profile folded onto the program's own
// functions: each sample is charged to the innermost frame of this module
// on its stack, so the runtime and standard-library code a function calls
// directly (map lookups, allocation, sorting) counts as that function's
// self time. Samples with no module frame, such as background GC workers
// and the scheduler, stay with their leaf.
type cpuProfile struct {
	charged map[profFunc]int64
	total   int64
}

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited value.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	wire   int
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		fld := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			fld.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fld.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", fld.wire)
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile. Sample values are
// [samples, cpu nanoseconds]; a location's lines list its inlined frames
// innermost first.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64 // leaf first
		ns   int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs    = map[uint64][2]uint64{} // function id -> name, file string indexes
		strtab   []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case profSample:
			// Go packs a repeated field only when it has more than two
			// values, so values and locations may arrive one per field.
			var locs, vals []uint64
			err := pbFields(f.bytes, func(sf pbField) error {
				var err error
				switch sf.num {
				case sampleLocation:
					locs, err = pbUints(sf, locs)
				case sampleValue:
					vals, err = pbUints(sf, vals)
				}
				return err
			})
			if err == nil && len(locs) > 0 && len(vals) >= 2 {
				samples = append(samples, sample{locs: locs, ns: int64(vals[1])})
			}
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(lf pbField) error {
				switch lf.num {
				case locationID:
					id = lf.varint
				case locationLine:
					return pbFields(lf.bytes, func(ln pbField) error {
						if ln.num == lineFunction {
							fns = append(fns, ln.varint)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name, file uint64
			err := pbFields(f.bytes, func(ff pbField) error {
				switch ff.num {
				case functionID:
					id = ff.varint
				case functionName:
					name = ff.varint
				case functionFilename:
					file = ff.varint
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
			return err
		case profStrings:
			strtab = append(strtab, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	fn := func(id uint64) profFunc {
		f := funcs[id]
		return profFunc{name: str(f[0]), file: str(f[1])}
	}
	p := &cpuProfile{charged: map[profFunc]int64{}}
	for _, s := range samples {
		var leaf, owner profFunc
	frames:
		for i, loc := range s.locs {
			for j, id := range locFuncs[loc] {
				f := fn(id)
				if i == 0 && j == 0 {
					leaf = f
				}
				if strings.HasPrefix(f.name, "loongserve/") || strings.HasPrefix(f.name, "main.") {
					owner = f
					break frames
				}
			}
		}
		if owner.name == "" {
			owner = leaf
		}
		p.charged[owner] += s.ns
		p.total += s.ns
	}
	return p, nil
}

// add merges q's samples into p.
func (p *cpuProfile) add(q *cpuProfile) {
	for f, ns := range q.charged {
		p.charged[f] += ns
	}
	p.total += q.total
}

// cpuLayers are the layers self time is folded into, in report order.
var cpuLayers = []string{
	"fleet.route", "fleet.cache", "fleet.runner", "fleet.gateway",
	"simevent", "core", "baselines", "costmodel", "kvcache", "workload",
	"obs", "metrics", "runtime", "other",
}

// fleetCacheFiles hold the prefix caches, the cache directory and the cold
// tier.
var fleetCacheFiles = map[string]bool{
	"radixcache.go": true, "radixindex.go": true, "prefixcache.go": true,
	"lru.go": true, "directory.go": true, "coldtier.go": true,
}

// replicaViewMethods are the gateway's fleet.ReplicaView methods: routing
// probes, counted with routing although they live in gateway.go.
var replicaViewMethods = map[string]bool{
	"OutstandingTokens": true, "QueueDepth": true, "CachedTokens": true,
	"SessionTokens": true, "Capability": true, "Index": true, "lookup": true,
}

const modulePrefix = "loongserve/internal/"

// layerOf names the layer a charged function belongs to. Module code goes
// by package (obs/analyze counts with obs); within fleet, by source
// file: policy.go and the replica views are routing, the cache files are
// caches, shard.go is the runner, and the rest is the gateway.
func layerOf(f profFunc) string {
	switch {
	case strings.HasPrefix(f.name, "runtime.") || strings.HasPrefix(f.name, "runtime/") ||
		strings.HasPrefix(f.name, "internal/runtime/") || !strings.Contains(f.name, "."):
		// Unqualified names are the runtime's assembly routines
		// (gcWriteBarrier, aeshashbody, memeqbody, ...).
		return "runtime"
	case !strings.HasPrefix(f.name, modulePrefix):
		return "other"
	}
	rest := f.name[len(modulePrefix):]
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	switch pkg {
	case "fleet":
		file := path.Base(f.file)
		switch {
		case file == "policy.go":
			return "fleet.route"
		case strings.HasPrefix(rest, "fleet.(*replica).") && replicaViewMethods[strings.TrimPrefix(rest, "fleet.(*replica).")]:
			return "fleet.route"
		case fleetCacheFiles[file]:
			return "fleet.cache"
		case file == "shard.go":
			return "fleet.runner"
		}
		return "fleet.gateway"
	case "simevent", "core", "baselines", "costmodel", "kvcache", "workload", "obs", "metrics":
		return pkg
	}
	return "other"
}

// shares folds the charged time into cpuLayers; the shares sum to 1.
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 0
	}
	if p.total == 0 {
		return out
	}
	for f, ns := range p.charged {
		out[layerOf(f)] += float64(ns) / float64(p.total)
	}
	return out
}

// top returns the n functions charged the most time.
func (p *cpuProfile) top(n int) []profFunc {
	fs := make([]profFunc, 0, len(p.charged))
	for f := range p.charged {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool {
		if p.charged[fs[i]] != p.charged[fs[j]] {
			return p.charged[fs[i]] > p.charged[fs[j]]
		}
		return fs[i].name < fs[j].name
	})
	if len(fs) > n {
		fs = fs[:n]
	}
	return fs
}
