// Package series is the time-series layer: fixed-capacity buffers
// sampled once per monitor interval. The figure tables read them from
// every harness result (throughput, RTT, PFC, utility, FSD accuracy),
// and the flight recorder samples its own (queue depth, ECN mark rate,
// PFC pause fraction, KL, utility, dispatch epoch, ...) and snapshots
// them, with the tail of the run's event log, into self-contained,
// deterministic JSON black-box artifacts when an anomaly trips.
//
// Design constraints, in order:
//
//  1. Steady-state sampling allocates nothing. Every Series is sized
//     at attach time and Append never grows it; overflow is handled by
//     in-place 2× downsampling. A series sized for its run's tick count
//     never downsamples.
//  2. Artifacts are deterministic: a fixed seed yields byte-identical
//     JSON. Nothing here reads wall clocks, draws randomness, or
//     iterates a map when building output.
//  3. The layer is read-only with respect to the simulation: it never
//     schedules engine events, so enabling it leaves event traces (and
//     the recorded goldens) untouched.
package series

import "math"

// Series is a fixed-capacity time series over (virtual time, value)
// samples. When the buffer fills, it halves itself in place — keeping
// every second sample — and doubles its acceptance stride, so a series
// of capacity C holds at most C uniformly spaced samples covering the
// whole run regardless of length. Capacity is even, so the kept samples
// stay on-grid after compaction.
type Series struct {
	name string
	unit string
	t    []int64
	v    []float64
	n    int
	// stride is how many offered samples map to one stored sample;
	// skip counts offers remaining until the next store.
	stride  int
	skip    int
	offered int64
}

// New builds a series that holds capacity samples before it first
// downsamples; capacity is rounded up to an even number of at least 2.
func New(name, unit string, capacity int) *Series {
	capacity = max(2, capacity+capacity%2)
	return &Series{
		name:   name,
		unit:   unit,
		t:      make([]int64, capacity),
		v:      make([]float64, capacity),
		stride: 1,
	}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len reports the number of stored samples.
func (s *Series) Len() int { return s.n }

// At returns the i-th stored sample.
func (s *Series) At(i int) (t int64, v float64) { return s.t[i], s.v[i] }

// Values returns the stored values, oldest first. The slice aliases the
// series' buffer, so it is valid until the next Append.
func (s *Series) Values() []float64 { return s.v[:s.n] }

// MeanOver averages the stored samples with from ≤ t < to (NaN if none).
func (s *Series) MeanOver(from, to int64) float64 {
	var sum float64
	var n int
	for i, t := range s.t[:s.n] {
		if t >= from && t < to {
			sum += s.v[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Append offers one sample at virtual time t. It is allocation-free:
// on overflow the buffer compacts in place (keeping samples at even
// indices, which stay uniformly spaced because capacity is even) and
// the stride doubles, after which only every stride-th offered sample
// is stored.
func (s *Series) Append(t int64, v float64) {
	s.offered++
	if s.skip > 0 {
		s.skip--
		return
	}
	if s.n == len(s.t) {
		half := s.n / 2
		for i := 1; i < half; i++ {
			s.t[i] = s.t[2*i]
			s.v[i] = s.v[2*i]
		}
		s.n = half
		s.stride *= 2
	}
	s.t[s.n] = t
	s.v[s.n] = v
	s.n++
	s.skip = s.stride - 1
}

// dump copies the stored samples into a SeriesDump. The slices are
// never nil so an empty series serializes as [], not null — artifact
// consumers can index without a null check.
func (s *Series) dump() SeriesDump {
	return SeriesDump{
		Name:    s.name,
		Unit:    s.unit,
		Stride:  s.stride,
		Offered: s.offered,
		T:       append([]int64{}, s.t[:s.n]...),
		V:       append([]float64{}, s.v[:s.n]...),
	}
}

// Set is an ordered, get-or-create collection of same-capacity series.
// Lookup by name is for construction time only; samplers resolve
// *Series handles once and append through them directly.
type Set struct {
	byName map[string]*Series
	order  []*Series
	cap    int
}

// NewSet builds a set whose series each hold capacity samples (see
// New); 0 means DefaultCapacity.
func NewSet(capacity int) *Set {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return &Set{byName: map[string]*Series{}, cap: capacity}
}

// DefaultCapacity bounds each series to 512 samples (~8 KB): a 512-
// interval run at full resolution, arbitrarily long runs downsampled.
const DefaultCapacity = 512

// Series returns the named series, creating it (with the set's
// capacity) on first use. Creation order is preserved for output, so
// callers that construct deterministically get deterministic dumps.
func (st *Set) Series(name, unit string) *Series {
	if s, ok := st.byName[name]; ok {
		return s
	}
	s := New(name, unit, st.cap)
	st.byName[name] = s
	st.order = append(st.order, s)
	return s
}

// dump snapshots every series in creation order.
func (st *Set) dump() []SeriesDump {
	out := make([]SeriesDump, len(st.order))
	for i, s := range st.order {
		out[i] = s.dump()
	}
	return out
}
