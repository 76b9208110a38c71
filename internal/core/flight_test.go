package core

import (
	"bytes"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/trace"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// TestFlightSampleZeroAlloc pins the steady-state contract of the whole
// per-tick sampling path — loop series, per-ToR fabric reads, delta
// triggers — not just Series.Append: once warm, sample() performs zero
// heap allocations.
func TestFlightSampleZeroAlloc(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Flight = series.NewRecorder(series.Meta{Experiment: "unit"})
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.flight == nil {
		t.Fatal("Flight config did not attach a sampler")
	}
	s.Start()
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[1], hosts[0], 8<<20)
	n.Run(5 * eventsim.Millisecond)

	sample := s.LastSample
	util := tuner.Utility(sample, tuner.DefaultWeights())
	var tick eventsim.Time = n.Eng.Now()
	allocs := testing.AllocsPerRun(2000, func() {
		tick += s.interval
		s.flight.sample(s, tick, sample, util)
	})
	if allocs != 0 {
		t.Fatalf("flight sample allocates %g/op, want 0", allocs)
	}
}

// TestFlightRecorderCapturesLoop smoke-checks the wiring: running the
// closed loop with a recorder and a tail-keeping event log attached
// populates the loop and per-ToR series and produces a loadable artifact
// whose events are the log's tail.
func TestFlightRecorderCapturesLoop(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	rec := series.NewRecorder(series.Meta{Experiment: "unit", Seed: 3})
	rec.Log = trace.New(func() int64 { return int64(n.Eng.Now()) }, nil, true)
	cfg.Flight, cfg.Trace = rec, rec.Log
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 64<<20)
	}
	n.Run(15 * eventsim.Millisecond)
	s.Stop()

	var buf bytes.Buffer
	if err := rec.WriteArtifact(&buf, int64(n.Eng.Now()), reg); err != nil {
		t.Fatal(err)
	}
	a, err := series.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"otp", "utility", "util_ewma", "monitor_kl", "queue_bytes_tor1", "ecn_mark_rate_tor1", "pfc_pause_frac_tor1"} {
		d := a.FindSeries(name)
		if d == nil {
			names := make([]string, 0, len(a.Series))
			for i := range a.Series {
				names = append(names, a.Series[i].Name)
			}
			t.Fatalf("series %q missing; have %v", name, names)
		}
		if len(d.V) == 0 {
			t.Errorf("series %q captured no samples", name)
		}
	}
	if u := a.FindSeries("utility"); int64(s.Controller.Ticks) != u.Offered {
		t.Errorf("utility offered %d samples over %d controller ticks", u.Offered, s.Controller.Ticks)
	}
	// Every dispatch lands in the log's tail (the loop dispatched at
	// least once in 15 ms of quickSA on fresh traffic).
	if got := len(trace.Filter(a.Events, trace.KindDispatch)); got == 0 || got != s.Dispatches {
		t.Errorf("%d dispatch events recorded, %d dispatches", got, s.Dispatches)
	}
}

// TestStartMatchesTickOnce: a Start-driven loop closes each interval where
// a driver calling TickOnce after Run does, at the end of the interval's
// engine instant, so over 40 intervals of a 6-worker alltoall on the
// 4:1 over-subscribed fabric both record the same O_TP in every interval.
func TestStartMatchesTickOnce(t *testing.T) {
	const intervals = 40
	run := func(start bool) []float64 {
		netCfg := sim.DefaultConfig()
		netCfg.Clos.FabricLinkBps = 10e9
		n, err := sim.New(netCfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSystemConfig()
		cfg.SA = tuner.ShortSAConfig()
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Flight = series.NewRecorder(series.Meta{Experiment: "unit"})
		s, err := Attach(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
			Workers: n.Topo.Hosts()[:6], MessageBytes: 1 << 20, OffTime: 2 * eventsim.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		if start {
			s.Start()
			n.Run(intervals * cfg.Interval)
		} else {
			s.StartProbingOnly()
			for i := eventsim.Time(1); i <= intervals; i++ {
				n.Run(i * cfg.Interval)
				s.TickOnce()
			}
		}
		return cfg.Flight.Set.Series("otp", "frac").Values()
	}
	started, ticked := run(true), run(false)
	if len(started) != intervals || len(ticked) != intervals {
		t.Fatalf("recorded %d and %d intervals, want %d", len(started), len(ticked), intervals)
	}
	for i := range ticked {
		if started[i] != ticked[i] {
			t.Errorf("interval %d: Start-driven O_TP %v, TickOnce-driven %v", i+1, started[i], ticked[i])
		}
	}
}
