package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one compared metric.
const (
	vSame       = "same"
	vBetter     = "better"
	vWorse      = "worse"
	vUnresolved = "unresolved"
	vChanged    = "changed"
)

// verdict judges new against base for one metric. A simulated or counted
// metric repeats exactly, so any difference is "changed". A host-time
// metric is "unresolved" when either side's inter-quartile spread exceeds
// the metric's bound (the runs cannot tell a regression of that size from
// noise), otherwise worse/better when the medians differ by more than the
// bound in that direction.
func verdict(m *metricDef, base, cur summary) string {
	if m.Exact {
		if base.Median == cur.Median {
			return vSame
		}
		return vChanged
	}
	allowed := func(s summary) float64 { return m.Bound*math.Abs(s.Median) + m.Slack }
	if base.Q3-base.Q1 > allowed(base) || cur.Q3-cur.Q1 > allowed(cur) {
		return vUnresolved
	}
	delta := cur.Median - base.Median
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > allowed(base):
		return vWorse
	case delta < -allowed(base):
		return vBetter
	}
	return vSame
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// result files (base, then new) and returns the exit code: 1 when any
// metric is worse, 2 when the files cannot be compared.
func compareFiles(w io.Writer, basePath, newPath string) int {
	var files [2]*resultFile
	for i, path := range []string{basePath, newPath} {
		f, err := readResult(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(w, files[0], files[1])
}

func compareResults(w io.Writer, base, cur *resultFile) int {
	if base.Meta.Size != cur.Meta.Size || base.Meta.Seed != cur.Meta.Seed {
		fmt.Fprintf(os.Stderr, "benchmark: the files measure different jobs: size %s seed %d vs size %s seed %d\n",
			base.Meta.Size, base.Meta.Seed, cur.Meta.Size, cur.Meta.Seed)
		return 2
	}
	fmt.Fprintf(w, "base: %s, %d cpus, %s    new: %s, %d cpus, %s\n",
		base.Meta.When, base.Meta.NProc, base.Meta.GoVersion, cur.Meta.When, cur.Meta.NProc, cur.Meta.GoVersion)
	fmt.Fprintf(w, "%-16s %-24s %-5s %12s %24s %12s %24s %8s  %s\n",
		"workload", "metric", "unit", "base median", "base q1..q3", "new median", "new q1..q3", "new/base", "verdict")
	counts := map[string]int{}
	row := func(workload, metric, unit string, b, c summary, v string) {
		ratio := 0.0
		if b.Median != 0 {
			ratio = c.Median / b.Median
		}
		fmt.Fprintf(w, "%-16s %-24s %-5s %12.6g %24s %12.6g %24s %8.4f  %s\n", workload, metric, unit,
			b.Median, fmt.Sprintf("%.6g..%.6g", b.Q1, b.Q3), c.Median, fmt.Sprintf("%.6g..%.6g", c.Q1, c.Q3), ratio, v)
		counts[v]++
	}
	e2e := e2eMetrics()
	events := metricByName(layerMetrics, "eventsim.events")
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		var cw *workloadResult
		for j := range cur.Workloads {
			if cur.Workloads[j].Name == bw.Name {
				cw = &cur.Workloads[j]
			}
		}
		if cw == nil {
			fmt.Fprintf(w, "%-16s missing from the new file\n", bw.Name)
			counts[vChanged]++
			continue
		}
		for k := range e2e {
			m := &e2e[k]
			bs, ok := bw.EndToEnd[m.Name]
			if !ok {
				continue
			}
			row(bw.Name, m.Name, m.Unit, bs, cw.EndToEnd[m.Name], verdict(m, bs, cw.EndToEnd[m.Name]))
		}
		be, ce := summarize(events.Unit, []float64{bw.Events}), summarize(events.Unit, []float64{cw.Events})
		row(bw.Name, events.Name, events.Unit, be, ce, verdict(events, be, ce))
		v := vSame
		if bw.Digest != cw.Digest {
			v = vChanged
		}
		fmt.Fprintf(w, "%-16s %-24s %-5s %12s %24s %12s %24s %8s  %s\n", bw.Name, "digest", "", bw.Digest, "", cw.Digest, "", "", v)
		counts[v]++
		if !bw.Correct || !cw.Correct {
			fmt.Fprintf(w, "%-16s output checks failed: base correct=%v new correct=%v\n", bw.Name, bw.Correct, cw.Correct)
		}
	}
	fmt.Fprintf(w, "verdicts: %d same, %d better, %d worse, %d unresolved, %d changed\n",
		counts[vSame], counts[vBetter], counts[vWorse], counts[vUnresolved], counts[vChanged])
	if counts[vWorse] > 0 {
		return 1
	}
	return 0
}
