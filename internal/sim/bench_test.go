package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
)

// BenchmarkEngineThroughput measures raw simulator speed on a saturated
// incast: events per second, time and heap allocations per event. These
// are the headline numbers the zero-allocation hot path is judged by (see
// EXPERIMENTS.md "Simulator performance").
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		n, err := sim.New(sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		hosts := n.Topo.Hosts()
		for j := 1; j < 8; j++ {
			n.StartFlow(hosts[j], hosts[0], 2<<20)
		}
		n.RunUntilIdle(eventsim.Second)
		events += n.Eng.Processed
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
}
