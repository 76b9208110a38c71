package ctrlrpc

import (
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/series"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// TestDaemonFlightRecorder drives a daemon with the flight recorder on
// through 20 ticks, tick 12 idle, and reads the artifact: every health
// series holds one sample per tick on the tick-index axis, the KL series
// skips the cold first tick and the idle one, and the event log's tail
// holds every dispatch.
func TestDaemonFlightRecorder(t *testing.T) {
	const ticks, idle = 20, 12
	cfg := DefaultServerConfig()
	cfg.SA = tuner.ShortSAConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Flight = series.NewRecorder(series.Meta{Experiment: "controller", Seed: 1})
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for tk := uint64(1); tk <= ticks; tk++ {
		for a := uint32(0); a < 2 && tk != idle; a++ {
			r := elephantReport(a, tk)
			if tk > 6 {
				// A mice-heavy mix: the KL trigger fires again.
				r.Hist[12], r.Hist[0] = 1000, 9000
				r.ElephantBytes, r.MiceBytes = 1000, 9000
			}
			r.UtilSum = 0.3 + 0.05*float64(tk%7)
			if err := c.SendReport(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Tick(tk, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	a := cfg.Flight.Artifact(ticks, nil)
	if a.Meta.Tuner != "sa" {
		t.Errorf("artifact tuner %q, want sa", a.Meta.Tuner)
	}
	var every, warm []int64
	for tk := int64(1); tk <= ticks; tk++ {
		every = append(every, tk)
		if tk != 1 && tk != idle {
			warm = append(warm, tk)
		}
	}
	for name, want := range map[string][]int64{
		"otp": every, "ortt": every, "opfc": every, "utility": every, "dispatch_epoch": every,
		"monitor_kl": warm,
	} {
		d := a.FindSeries(name)
		if d == nil {
			t.Errorf("series %s missing", name)
			continue
		}
		if !slices.Equal(d.T, want) {
			t.Errorf("series %s on ticks %v, want %v", name, d.T, want)
		}
	}
	if ortt := a.FindSeries("ortt"); ortt != nil && ortt.V[idle-1] != 1 {
		t.Errorf("idle tick's ortt %v, want 1", ortt.V[idle-1])
	}

	st := s.Stats()
	if st.Dispatches == 0 {
		t.Fatal("the daemon never dispatched")
	}
	dispatches := trace.Filter(a.Events, trace.KindDispatch)
	if int64(len(dispatches)) != st.Dispatches {
		t.Fatalf("event tail holds %d dispatches, the daemon made %d", len(dispatches), st.Dispatches)
	}
	if last := dispatches[len(dispatches)-1]; *last.Params != s.Current() {
		t.Errorf("last dispatch in the tail %+v, daemon runs %+v", *last.Params, s.Current())
	}
	if epochs := a.FindSeries("dispatch_epoch"); epochs != nil && int64(epochs.V[ticks-1]) != st.Dispatches {
		t.Errorf("final dispatch_epoch %v, want %d", epochs.V[ticks-1], st.Dispatches)
	}
	for _, e := range a.Events {
		if e.T < 1 || e.T > ticks {
			t.Errorf("event %s stamped %d, outside the tick axis 1..%d", e.Kind, e.T, ticks)
		}
	}
}
