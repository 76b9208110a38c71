package harness

import (
	"testing"

	"repro/internal/ctrlrpc"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// wireConfig is a QuickScale Paraleon run for dur behind an in-process
// TCP controller configured by srv.
func wireConfig(srv ctrlrpc.ServerConfig, dur eventsim.Time) RunConfig {
	cfg := QuickScale().Config(ParaleonScheme(), dur, nil)
	cfg.Wire = &Wire{Server: srv}
	return cfg
}

func TestRunTestbedClosedLoop(t *testing.T) {
	cfg := wireConfig(ctrlrpc.DefaultServerConfig(), 30*eventsim.Millisecond)
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
	var initial = ctrlrpc.DefaultServerConfig().Base
	cfg := wireConfig(ctrlrpc.DefaultServerConfig(), 20*eventsim.Millisecond)
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
	cfg := wireConfig(ctrlrpc.DefaultServerConfig(), 5*eventsim.Millisecond)
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
