package harness

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// wireConfig is a QuickScale Paraleon run for dur behind an in-process
// TCP controller.
func wireConfig(dur eventsim.Time) RunConfig {
	return testbedConfig(QuickScale(), dur, nil)
}

func TestRunTestbedClosedLoop(t *testing.T) {
	cfg := wireConfig(30 * eventsim.Millisecond)
	cfg.Workload = func(n *sim.Network) error {
		_, err := workload.InstallPoisson(n, workload.PoissonConfig{
			CDF: workload.FBHadoop(), Load: 0.4,
		})
		return err
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TP.Len() != 30 {
		t.Errorf("TP samples %d, want 30", res.TP.Len())
	}
	if st := res.Wire.Server; st.Reports == 0 || st.Ticks != 30 {
		t.Errorf("server stats %+v", st)
	}
	if res.Wire.Server.Triggers == 0 {
		t.Error("controller never triggered tuning")
	}
	if res.Dispatches == 0 {
		t.Error("no parameters applied to the fabric")
	}
	if b := res.Wire.ReportBytes; b <= 0 || b > 1024 {
		t.Errorf("report frame %d B implausible", b)
	}
	if b := res.Wire.ParamsBytes; b <= 0 || b > 512 {
		t.Errorf("params frame %d B implausible", b)
	}
	if len(res.Net.Completed) == 0 {
		t.Error("no flows completed")
	}
}

func TestTestbedParamsReachFabric(t *testing.T) {
	initial := ParaleonScheme().Static
	cfg := wireConfig(20 * eventsim.Millisecond)
	cfg.Workload = func(n *sim.Network) error {
		hosts := n.Topo.Hosts()
		for i := 1; i <= 5; i++ {
			n.StartFlow(hosts[i], hosts[0], 64<<20)
		}
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatches == 0 {
		t.Fatal("no dispatches")
	}
	got := *res.Net.RNICParams()
	if got == initial {
		t.Error("fabric still on initial params after dispatches")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("fabric params invalid: %v", err)
	}
}

// TestTestbedDrainEndsOnCompletions pins DrainAfter to the receivers'
// view. The wire arms probe timers, so the engine never idles; a drain
// with RunUntilIdle would run to MaxTime (over a second here) for two
// flows done at ~7 ms.
func TestTestbedDrainEndsOnCompletions(t *testing.T) {
	scale := QuickScale()
	cfg := wireConfig(5 * eventsim.Millisecond)
	cfg.DrainAfter = true
	cfg.Workload = func(n *sim.Network) error {
		hosts := n.Topo.Hosts()
		n.StartFlow(hosts[1], hosts[0], 4<<20)
		n.StartFlow(hosts[2], hosts[0], 4<<20)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 || len(res.Net.Completed) != 2 {
		t.Fatalf("incomplete %d, completed %d of 2", res.Incomplete, len(res.Net.Completed))
	}
	var last eventsim.Time
	for _, r := range res.Net.Completed {
		last = max(last, r.End)
	}
	if now := res.Net.Eng.Now(); now > last+scale.Interval {
		t.Errorf("drain ran to %v, last completion at %v: more than one interval (%v) past it", now, last, scale.Interval)
	}
}

// TestSimMatchesWire runs each strategy's closed loop twice, in process
// and behind the TCP control plane, and requires the two runs to make the
// same decisions: the same dispatches, the same vectors on every RNIC and
// ToR, the same flow completions, and the same per-interval utility up to
// the rounding of the wire's rack-by-rack sums. The bandit/net case picks
// its strategy the way paraleon-sim's -tuner does, through sim.Config.
func TestSimMatchesWire(t *testing.T) {
	workloads := map[string]func(*sim.Network) error{
		"fb40":     fbPoisson(0.4, 0),
		"alltoall": crossRackAlltoall,
	}
	strategies := []struct {
		name, tuner string
		pick        func(*RunConfig)
	}{
		{"sa", "sa", func(*RunConfig) {}},
		{"bandit", "bandit", func(c *RunConfig) { c.Scheme.SystemCfg.Tuner = "bandit" }},
		{"bandit/net", "bandit", func(c *RunConfig) { c.Net.Tuner = "bandit" }},
	}
	for wlName, wl := range workloads {
		for _, st := range strategies {
			t.Run(st.name+"/"+wlName, func(t *testing.T) {
				t.Parallel()
				var runs [2]*Result
				for i, wire := range []*Wire{nil, {}} {
					cfg := QuickScale().Config(ParaleonScheme(), 100*eventsim.Millisecond, wl)
					cfg.Scheme.SystemCfg.Telemetry = telemetry.NewRegistry()
					cfg.Wire = wire
					st.pick(&cfg)
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					runs[i] = res
				}
				local, remote := runs[0], runs[1]
				if got := local.Sys.Tuner.Name(); got != st.tuner {
					t.Errorf("the in-process loop ran %q, want %q", got, st.tuner)
				}
				if local.Dispatches == 0 || local.Dispatches != remote.Dispatches {
					t.Errorf("dispatches: in process %d, wire %d", local.Dispatches, remote.Dispatches)
				}
				if l, r := *local.Net.RNICParams(), *remote.Net.RNICParams(); l != r {
					t.Errorf("RNIC vectors differ:\nin process %+v\nwire       %+v", l, r)
				}
				for _, tor := range local.Net.Topo.ToRs() {
					if l, r := *local.Net.SwitchParams(tor), *remote.Net.SwitchParams(tor); l != r {
						t.Errorf("ToR %d vectors differ:\nin process %+v\nwire       %+v", tor, l, r)
					}
				}
				if l, r := local.Net.Completed, remote.Net.Completed; !slices.Equal(l, r) {
					t.Errorf("completions differ: in process %d records, wire %d", len(l), len(r))
				}
				lu, ru := local.Utility.Values(), remote.Utility.Values()
				if len(lu) != len(ru) {
					t.Fatalf("utility samples: in process %d, wire %d", len(lu), len(ru))
				}
				var worst float64
				for i := range lu {
					worst = max(worst, math.Abs(lu[i]-ru[i]))
				}
				if worst > 1e-12 {
					t.Errorf("per-interval utility differs by up to %g", worst)
				}
				t.Logf("%d dispatches, %d completions, utility within %.2g", remote.Dispatches, len(remote.Net.Completed), worst)
			})
		}
	}
}

// TestWireRefusesPerSwitchStrategy: the daemon answers every tick with one
// vector, so a wire run of a per-switch strategy fails instead of
// silently running a different loop than the simulator would.
func TestWireRefusesPerSwitchStrategy(t *testing.T) {
	cfg := wireConfig(5 * eventsim.Millisecond)
	cfg.Workload = crossRackAlltoall
	cfg.Scheme.SystemCfg.Tuner = "multiecn"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "multiecn") {
		t.Fatalf("a multiecn wire run returned %v, want an error naming the strategy", err)
	}
}
