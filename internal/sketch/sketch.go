// Package sketch implements Elastic Sketch (Yang et al., SIGCOMM 2018),
// the per-flow measurement structure Paraleon deploys in every ToR data
// plane. A Heavy Part of buckets tracks elephant candidates with the
// "Ostracism" voting scheme (vote+ for the resident flow, vote− for
// challengers; a challenger evicts the resident when vote−/vote+ crosses
// λ). A Light Part — a count-min sketch — absorbs mice and evicted
// residue.
//
// Unlike the original packet-count formulation, this implementation counts
// bytes, which is what flow size distribution needs.
package sketch

import (
	"slices"

	"repro/internal/splitmix"
)

// Config sizes a sketch instance.
type Config struct {
	// HeavyBuckets is the number of Heavy Part buckets (top-k capacity).
	HeavyBuckets int
	// LightRows and LightWidth shape the count-min Light Part.
	LightRows  int
	LightWidth int
	// Lambda is the Ostracism eviction threshold: evict the resident when
	// vote− ≥ λ·vote+ (the paper uses 8).
	Lambda float64
}

// DefaultConfig is sized for a ToR observing a few thousand concurrent
// flows: 512 heavy buckets, a 4×2048 light part.
func DefaultConfig() Config {
	return Config{HeavyBuckets: 512, LightRows: 4, LightWidth: 2048, Lambda: 8}
}

type bucket struct {
	flow    uint64
	votePos int64 // bytes credited to the resident flow
	voteNeg int64 // bytes from challengers since the resident arrived
	flag    bool  // resident may have earlier bytes in the Light Part
	used    bool
}

// FlowSize pairs a flow with its estimated transferred bytes.
type FlowSize struct {
	Flow  uint64
	Bytes int64
}

// Sketch is one Elastic Sketch instance. It is not safe for concurrent
// use; in the simulation each switch owns one and the engine is
// single-threaded.
type Sketch struct {
	cfg   Config
	heavy []bucket
	light []int64 // LightRows × LightWidth
	seeds []uint64

	// scratch backs HeavyFlows so the per-interval agent read reuses one
	// buffer instead of allocating each call.
	scratch []FlowSize

	// TotalBytes counts every inserted byte (ground total for shares).
	TotalBytes int64
	// Inserts counts Insert calls (≈ packets observed).
	Inserts int64
	// Evictions counts Ostracism replacements.
	Evictions int64
}

// New builds a sketch; seed differentiates hash functions across switches.
func New(cfg Config, seed uint64) *Sketch {
	if cfg.HeavyBuckets <= 0 || cfg.LightRows <= 0 || cfg.LightWidth <= 0 {
		panic("sketch: non-positive dimension")
	}
	if cfg.Lambda <= 0 {
		panic("sketch: non-positive lambda")
	}
	s := &Sketch{
		cfg:   cfg,
		heavy: make([]bucket, cfg.HeavyBuckets),
		light: make([]int64, cfg.LightRows*cfg.LightWidth),
		seeds: make([]uint64, 2),
	}
	for i := range s.seeds {
		seed = splitmix.Next(seed)
		s.seeds[i] = seed
	}
	return s
}

func (s *Sketch) heavyIndex(flow uint64) int {
	return int(splitmix.Mix(flow^s.seeds[0]) % uint64(len(s.heavy)))
}

// lightHashes derives every Light Part row's column from one base avalanche
// via double hashing: row r probes column (h1 + r·h2) mod width. One
// avalanche per Insert instead of LightRows of them; h2 is forced odd so
// the probe stride never degenerates for power-of-two widths.
func (s *Sketch) lightHashes(flow uint64) (h1, h2 uint64) {
	base := splitmix.Mix(flow ^ s.seeds[1])
	return base, (base >> 32) | 1
}

func (s *Sketch) lightIndex(row int, flow uint64) int {
	h1, h2 := s.lightHashes(flow)
	return row*s.cfg.LightWidth + int((h1+uint64(row)*h2)%uint64(s.cfg.LightWidth))
}

// Insert credits bytes to flow.
func (s *Sketch) Insert(flow uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	s.TotalBytes += bytes
	s.Inserts++
	b := &s.heavy[s.heavyIndex(flow)]
	switch {
	case !b.used:
		*b = bucket{flow: flow, votePos: bytes, used: true}
	case b.flow == flow:
		b.votePos += bytes
	default:
		b.voteNeg += bytes
		if float64(b.voteNeg) >= s.cfg.Lambda*float64(b.votePos) {
			// Ostracize: flush the resident to the Light Part and seat
			// the challenger. Its earlier bytes (counted as vote−) live
			// in the Light Part, so flag it.
			s.lightAdd(b.flow, b.votePos)
			s.Evictions++
			*b = bucket{flow: flow, votePos: bytes, flag: true, used: true}
		} else {
			s.lightAdd(flow, bytes)
		}
	}
}

func (s *Sketch) lightAdd(flow uint64, bytes int64) {
	h1, h2 := s.lightHashes(flow)
	width := uint64(s.cfg.LightWidth)
	for r := 0; r < s.cfg.LightRows; r++ {
		s.light[r*s.cfg.LightWidth+int((h1+uint64(r)*h2)%width)] += bytes
	}
}

func (s *Sketch) lightEstimate(flow uint64) int64 {
	h1, h2 := s.lightHashes(flow)
	width := uint64(s.cfg.LightWidth)
	var min int64 = -1
	for r := 0; r < s.cfg.LightRows; r++ {
		v := s.light[r*s.cfg.LightWidth+int((h1+uint64(r)*h2)%width)]
		if min < 0 || v < min {
			min = v
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// HeavyFlows lists the Heavy Part residents with their full estimates,
// largest first. This is what the switch control plane reads every monitor
// interval. The returned slice is backed by a scratch buffer the sketch
// reuses: it stays valid only until the next HeavyFlows call, so callers
// that need the data across reads must copy it.
func (s *Sketch) HeavyFlows() []FlowSize {
	out := s.scratch[:0]
	for i := range s.heavy {
		b := &s.heavy[i]
		if !b.used {
			continue
		}
		size := b.votePos
		if b.flag {
			size += s.lightEstimate(b.flow)
		}
		out = append(out, FlowSize{Flow: b.flow, Bytes: size})
	}
	slices.SortFunc(out, func(a, b FlowSize) int {
		switch {
		case a.Bytes != b.Bytes:
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		case a.Flow < b.Flow:
			return -1
		case a.Flow > b.Flow:
			return 1
		default:
			return 0
		}
	})
	s.scratch = out
	return out
}

// FlaggedResidue sums the Light Part estimates of flagged Heavy Part
// residents — mass HeavyFlows already folds into those flows' sizes.
// Readers that also lump LightBytes into a total must subtract this
// residue, or the flagged bytes count twice. Count-min estimates never
// under-count, so the residue can exceed the flows' true Light Part mass
// under collisions; callers should clamp the corrected lump at zero.
func (s *Sketch) FlaggedResidue() int64 {
	var total int64
	for i := range s.heavy {
		b := &s.heavy[i]
		if b.used && b.flag {
			total += s.lightEstimate(b.flow)
		}
	}
	return total
}

// LightBytes is the total mass absorbed by the Light Part, computed as
// one row's sum (every row receives every insert).
func (s *Sketch) LightBytes() int64 {
	var total int64
	for i := 0; i < s.cfg.LightWidth; i++ {
		total += s.light[i]
	}
	return total
}

// Reset clears all state (the per-interval read-and-reset the agent does).
func (s *Sketch) Reset() {
	for i := range s.heavy {
		s.heavy[i] = bucket{}
	}
	for i := range s.light {
		s.light[i] = 0
	}
	s.TotalBytes = 0
	s.Inserts = 0
	s.Evictions = 0
}
