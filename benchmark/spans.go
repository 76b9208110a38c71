package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Parent is the index of the enclosing span (-1 for the root);
// every span of one repetition shares the workload id.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string, origin time.Time) *tracer {
	return &tracer{workload: workload, origin: origin, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, StartNs: int64(time.Since(t.origin))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = int64(time.Since(t.origin))
}

// selfTimes returns each span's duration minus the part its children
// cover, and an error when spans are not well nested.
func selfTimes(spans []span) ([]int64, error) {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Parent >= i || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	for i, v := range self {
		if v < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %d ns", i, spans[i].Name, v)
		}
	}
	return self, nil
}

// spanDurations lists the durations (ns) of every span with one of the
// given names.
func spanDurations(spans []span, names ...string) []float64 {
	var out []float64
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				out = append(out, float64(s.EndNs-s.StartNs))
			}
		}
	}
	return out
}

// spanTotal aggregates the spans of one name: how many, their summed
// duration, and their summed self time.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimeByName folds per-span self times into one row per span name,
// ordered by first appearance.
func selfTimeByName(spans []span) ([]spanTotal, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	var out []spanTotal
	for i, s := range spans {
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].Count++
		out[j].TotalS += float64(s.EndNs-s.StartNs) / 1e9
		out[j].SelfS += float64(self[i]) / 1e9
	}
	return out, nil
}

// spanMetrics derives the layer metrics that only a traced repetition has
// from its spans: control-loop tick cost and share, and client call times.
func spanMetrics(spans []span, host map[string]float64) {
	if ticks := spanDurations(spans, "core.tick"); len(ticks) > 0 {
		host["core.tick_us_p50"] = metrics.Percentile(ticks, 0.5) / 1e3
		host["core.tick_us_max"] = metrics.Percentile(ticks, 1) / 1e3
		if job := spanDurations(spans, "job"); len(job) == 1 && job[0] > 0 {
			host["core.tick_share"] = sum(ticks) / job[0]
		}
	}
	if calls := spanDurations(spans, "ctrlrpc.report", "ctrlrpc.tick", "ctrlrpc.ack"); len(calls) > 0 {
		host["ctrlrpc.call_us_p50"] = metrics.Percentile(calls, 0.5) / 1e3
		host["ctrlrpc.call_us_p99"] = metrics.Percentile(calls, 0.99) / 1e3
	}
}

// appendSpans adds spans to a trace file, one JSON object per line, so that
// the repetitions of several workloads can share one file.
func appendSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
