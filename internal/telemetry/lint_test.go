package telemetry

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// metricNameRe is the project's naming contract: every runtime metric
// is lowercase snake_case under the paraleon_ prefix. The registry's
// own validName is looser (it allows anything Prometheus allows); this
// test pins the stricter house style.
var metricNameRe = regexp.MustCompile(`^paraleon_[a-z0-9_]+$`)

// registerAll instantiates every metric family the binaries can
// register at runtime, so Names() below is the complete inventory.
func registerAll(r *Registry) {
	NewSketchMetrics(r)
	NewMonitorMetrics(r)
	NewTunerMetrics(r)
	NewRPCMetrics(r)
	NewChaosMetrics(r)
	NewDispatchMetrics(r)
	NewSimMetrics(r)
	NewEngineMetrics(r)
	VirtualTime(r)
}

// TestMetricNamesLint fails when a runtime-registered metric name is
// malformed or missing from the README metrics inventory table — an
// undocumented metric is a doc bug, and a renamed metric must rename
// its documentation in the same change.
func TestMetricNamesLint(t *testing.T) {
	r := NewRegistry()
	registerAll(r)
	names := r.Names()
	if len(names) < 50 {
		t.Fatalf("only %d metric families registered; registerAll is missing a constructor", len(names))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	doc := string(readme)

	for _, name := range names {
		if !metricNameRe.MatchString(name) {
			t.Errorf("metric %q does not match %s", name, metricNameRe)
		}
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %q is not documented in README.md's metrics table", name)
		}
	}
}
