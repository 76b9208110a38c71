package series

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ArtifactVersion stamps the black-box schema; paraleon-analyze
// refuses artifacts with a different major version.
const ArtifactVersion = 1

// Meta identifies the run an artifact came from. It deliberately
// excludes anything the determinism contract says must not matter
// (worker count, wall-clock timestamps): two runs that should be
// byte-identical produce byte-identical Meta.
type Meta struct {
	Experiment string `json:"experiment"`
	Tuner      string `json:"tuner,omitempty"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale,omitempty"`
	IntervalNs int64  `json:"interval_ns,omitempty"`
	HorizonNs  int64  `json:"horizon_ns,omitempty"`
}

// Anomaly is one tripped trigger. Snapshot indexes into
// Artifact.Snapshots when the trip captured one (-1 otherwise: the
// per-artifact snapshot budget was exhausted, but the anomaly is
// still on record and visible in the final series).
type Anomaly struct {
	T        int64  `json:"t"`
	Kind     string `json:"kind"`
	Detail   string `json:"detail,omitempty"`
	Snapshot int    `json:"snapshot"`
}

// SeriesDump is one series' stored samples.
type SeriesDump struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	// Stride is the offered-samples-per-stored-sample factor at dump
	// time; Offered the total offered, so readers can tell how much
	// resolution downsampling cost.
	Stride  int       `json:"stride"`
	Offered int64     `json:"offered"`
	T       []int64   `json:"t"`
	V       []float64 `json:"v"`
}

// Snapshot is the trailing window of every series frozen at the
// moment anomaly Anomaly tripped.
type Snapshot struct {
	Anomaly int          `json:"anomaly"`
	T       int64        `json:"t"`
	Series  []SeriesDump `json:"series"`
}

// Artifact is the self-contained black box: run identity, the anomaly
// ledger, the tail of the run's event log, per-anomaly series
// snapshots, the end-of-run series, and histogram snapshots from the
// telemetry registry. Everything in it derives from virtual-time state,
// so a fixed seed yields byte-identical artifacts.
type Artifact struct {
	Version       int                           `json:"version"`
	Meta          Meta                          `json:"meta"`
	EndT          int64                         `json:"end_t"`
	Anomalies     []Anomaly                     `json:"anomalies"`
	Events        []trace.Event                 `json:"events,omitempty"`
	EventsDropped int64                         `json:"events_dropped,omitempty"`
	Snapshots     []Snapshot                    `json:"snapshots,omitempty"`
	Series        []SeriesDump                  `json:"series"`
	Histograms    []telemetry.HistogramSnapshot `json:"histograms,omitempty"`
}

// FindSeries returns the named end-of-run series, or nil.
func (a *Artifact) FindSeries(name string) *SeriesDump {
	for i := range a.Series {
		if a.Series[i].Name == name {
			return &a.Series[i]
		}
	}
	return nil
}

// FindHistogram returns the named histogram snapshot, or nil.
func (a *Artifact) FindHistogram(name string) *telemetry.HistogramSnapshot {
	for i := range a.Histograms {
		if a.Histograms[i].Name == name {
			return &a.Histograms[i]
		}
	}
	return nil
}

// Recorder is the flight recorder: a Set of series being sampled by
// the control loop and the anomaly ledger. Anomaly trips (Trip) freeze
// a snapshot of every series — the trailing window around the trigger
// at full available resolution — up to a fixed per-run snapshot
// budget. The run's events live in its trace.Recorder; the artifact
// carries that log's tail.
//
// Sampling (Series handles + Append) is allocation-free; Trip may
// allocate and is expected to be rare.
type Recorder struct {
	Set *Set
	// Log is the run's event log; its tail becomes the artifact's
	// events. Nil leaves the artifact without events.
	Log  *trace.Recorder
	meta Meta

	anomalies []Anomaly
	snapshots []Snapshot
	maxSnaps  int
}

// NewRecorder builds a recorder with DefaultCapacity series and a
// budget of 4 anomaly snapshots.
func NewRecorder(meta Meta) *Recorder {
	return &Recorder{
		Set:      NewSet(0),
		meta:     meta,
		maxSnaps: 4,
	}
}

// Meta returns the recorder's run identity.
func (r *Recorder) Meta() Meta { return r.meta }

// SetMeta replaces the run identity (harnesses fill fields they only
// learn after construction, e.g. the resolved tuner name).
func (r *Recorder) SetMeta(m Meta) { r.meta = m }

// Trip records an anomaly and, while the snapshot budget lasts,
// freezes the trailing window of every series at this instant.
func (r *Recorder) Trip(t int64, kind, detail string) {
	idx := -1
	if len(r.snapshots) < r.maxSnaps {
		idx = len(r.snapshots)
		r.snapshots = append(r.snapshots, Snapshot{
			Anomaly: len(r.anomalies),
			T:       t,
			Series:  r.Set.dump(),
		})
	}
	r.anomalies = append(r.anomalies, Anomaly{T: t, Kind: kind, Detail: detail, Snapshot: idx})
}

// Artifact assembles the black box as of virtual time endT, embedding
// histogram snapshots from reg (nil skips them).
func (r *Recorder) Artifact(endT int64, reg *telemetry.Registry) *Artifact {
	a := &Artifact{
		Version:   ArtifactVersion,
		Meta:      r.meta,
		EndT:      endT,
		Anomalies: r.anomalies,
		Snapshots: r.snapshots,
		Series:    r.Set.dump(),
	}
	if a.Anomalies == nil {
		a.Anomalies = []Anomaly{}
	}
	a.Events, a.EventsDropped = r.Log.Tail()
	if reg != nil {
		a.Histograms = reg.Histograms()
	}
	return a
}

// WriteArtifact renders the artifact as indented JSON. Field order is
// fixed by the struct definitions and no map is serialized, so the
// bytes are a pure function of the recorded virtual-time state.
func (r *Recorder) WriteArtifact(w io.Writer, endT int64, reg *telemetry.Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Artifact(endT, reg))
}

// Load parses an artifact and checks its schema version.
func Load(rd io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("series: parse artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("series: artifact version %d, want %d", a.Version, ArtifactVersion)
	}
	return &a, nil
}
