package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// MetricSummary is one family's value in a Report. Counters and gauges
// fill Value; histograms fill Count/Sum/Mean.
type MetricSummary struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"`
	Value float64 `json:"value,omitempty"`
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
}

// Report is a run summary: every family that recorded activity, plus
// the published status sections. The harness and cmd/paraleon-sim emit
// one after each run (-report), giving batch runs the same ledger the
// daemons expose live over /metrics.
type Report struct {
	VirtualTimeNs int64           `json:"virtual_time_ns"`
	Metrics       []MetricSummary `json:"metrics"`
	Status        map[string]any  `json:"status,omitempty"`
}

// value looks a counter or gauge up by name (0 when it never moved).
func (rep Report) value(name string) float64 {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// BuildReport snapshots the registry. Families that never moved (zero
// counters, zero-count histograms, zero gauges) are omitted so the
// summary reads as "what happened", not the full schema.
func (r *Registry) BuildReport() Report {
	rep := Report{
		VirtualTimeNs: int64(VirtualTime(r).Value()),
		Status:        r.Status(),
	}
	for _, f := range r.sortedFamilies() {
		switch f.kind {
		case kindCounter:
			if v := f.c.Value(); v != 0 {
				rep.Metrics = append(rep.Metrics, MetricSummary{Name: f.name, Type: "counter", Value: float64(v)})
			}
		case kindGauge:
			if v := f.g.Value(); v != 0 {
				rep.Metrics = append(rep.Metrics, MetricSummary{Name: f.name, Type: "gauge", Value: v})
			}
		case kindHistogram:
			if n := f.h.Count(); n != 0 {
				sum := f.h.Sum()
				rep.Metrics = append(rep.Metrics, MetricSummary{
					Name: f.name, Type: "histogram",
					Count: n, Sum: sum, Mean: sum / float64(n),
				})
			}
		}
	}
	return rep
}

// Empty reports whether no family recorded any activity.
func (rep Report) Empty() bool { return len(rep.Metrics) == 0 }

// Fprint renders the report as an aligned text table.
func (rep Report) Fprint(w io.Writer) {
	fmt.Fprintln(w, "telemetry report")
	if rep.VirtualTimeNs > 0 {
		fmt.Fprintf(w, "  virtual time: %.3f ms\n", float64(rep.VirtualTimeNs)/1e6)
	}
	if rep.Empty() {
		fmt.Fprintln(w, "  (no activity recorded)")
		return
	}
	// Rates the engine counters imply; wall time sums over runs, so with
	// parallel arms events/s is per engine, not per process.
	if events, wall, virt := rep.value(engineEvents), rep.value(engineWallNs), rep.value(engineVirtualNs); events > 0 && wall > 0 && virt > 0 {
		fmt.Fprintf(w, "  engine: %.0f events, %.4g events/s, %.4g wall-s per virtual-ms, %.3f relinks/event\n",
			events, events/(wall/1e9), (wall/1e9)/(virt/1e6), rep.value(engineRelinks)/events)
		if tx := rep.value(portTx); tx > 0 {
			timers := rep.value(portTxTimers)
			fmt.Fprintf(w, "  ports: %.0f transmissions, %.0f serialization timers (%.1f %%), %.3f events per transmission, %.0f packets allocated (%.2f MB)\n",
				tx, timers, 100*timers/tx, events/tx, rep.value(poolPackets), rep.value(poolBytes)/(1<<20))
		}
	}
	for _, m := range rep.Metrics {
		switch m.Type {
		case "histogram":
			fmt.Fprintf(w, "  %-42s count=%d sum=%.4g mean=%.4g\n", m.Name, m.Count, m.Sum, m.Mean)
		default:
			fmt.Fprintf(w, "  %-42s %.6g\n", m.Name, m.Value)
		}
	}
	if len(rep.Status) > 0 {
		sections := make([]string, 0, len(rep.Status))
		for k := range rep.Status {
			sections = append(sections, k)
		}
		sort.Strings(sections)
		for _, k := range sections {
			fmt.Fprintf(w, "  status %s: %+v\n", k, rep.Status[k])
		}
	}
}
