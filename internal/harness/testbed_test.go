package harness

import (
	"strings"
	"testing"

	"repro/internal/ctrlrpc"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRunTestbedClosedLoop(t *testing.T) {
	scale := QuickScale()
	res, err := RunTestbed(TestbedConfig{
		Scale:    scale,
		Server:   ctrlrpc.DefaultServerConfig(),
		Duration: 30 * eventsim.Millisecond,
		Workload: func(n *sim.Network) error {
			_, err := workload.InstallPoisson(n, workload.PoissonConfig{
				CDF: workload.FBHadoop(), Load: 0.4,
			})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TP.Len() != 30 {
		t.Errorf("TP samples %d, want 30", res.TP.Len())
	}
	if res.Server.Reports == 0 || res.Server.Ticks != 30 {
		t.Errorf("server stats %+v", res.Server)
	}
	if res.Server.Triggers == 0 {
		t.Error("controller never triggered tuning")
	}
	if res.Dispatches == 0 {
		t.Error("no parameters applied to the fabric")
	}
	if res.ReportBytes <= 0 || res.ReportBytes > 1024 {
		t.Errorf("report frame %d B implausible", res.ReportBytes)
	}
	if res.ParamsBytes <= 0 || res.ParamsBytes > 512 {
		t.Errorf("params frame %d B implausible", res.ParamsBytes)
	}
	if len(res.Net.Completed) == 0 {
		t.Error("no flows completed")
	}
}

func TestTestbedParamsReachFabric(t *testing.T) {
	scale := QuickScale()
	var initial = ctrlrpc.DefaultServerConfig().Base
	res, err := RunTestbed(TestbedConfig{
		Scale:    scale,
		Server:   ctrlrpc.DefaultServerConfig(),
		Duration: 20 * eventsim.Millisecond,
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			for i := 1; i <= 5; i++ {
				n.StartFlow(hosts[i], hosts[0], 64<<20)
			}
			return nil
		},
	})
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
// view. The testbed arms probe timers, so the engine never idles; the
// parent drained with RunUntilIdle and ran to Duration + the 10 s default
// MaxTime (10.005 s here) for two flows done at ~7 ms.
func TestTestbedDrainEndsOnCompletions(t *testing.T) {
	scale := QuickScale()
	res, err := RunTestbed(TestbedConfig{
		Scale:      scale,
		Server:     ctrlrpc.DefaultServerConfig(),
		Duration:   5 * eventsim.Millisecond,
		DrainAfter: true,
		Workload: func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			n.StartFlow(hosts[1], hosts[0], 4<<20)
			n.StartFlow(hosts[2], hosts[0], 4<<20)
			return nil
		},
	})
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

func TestFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed sweep skipped in -short")
	}
	res, err := Fig13(QuickScale(), []int{4, 6}, 1<<20, 80*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range res.WorkerCounts {
		for _, name := range res.Order {
			bw := res.GoodputGbps[wc][name]
			if bw <= 0 {
				t.Errorf("workers %d scheme %s: goodput %g", wc, name, bw)
			}
		}
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "paraleon") {
		t.Error("Fprint missing paraleon row")
	}
}

func TestFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed influx skipped in -short")
	}
	spec := DefaultInfluxSpec()
	spec.Horizon = 60 * eventsim.Millisecond
	spec.BurstAt = 20 * eventsim.Millisecond
	spec.BurstLen = 15 * eventsim.Millisecond
	res, err := Fig14(QuickScale(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Fatalf("%d arms", len(res.Order))
	}
	for _, name := range res.Order {
		if res.TP[name].Len() != 60 {
			t.Errorf("%s: %d samples", name, res.TP[name].Len())
		}
	}
}

func TestTable4(t *testing.T) {
	res, err := Table4(QuickScale(), 20*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwitchToControllerBytes <= 0 {
		t.Error("no switch→controller bytes")
	}
	if res.ControllerToFabricBytes <= 0 {
		t.Error("no controller→fabric bytes")
	}
	if res.Ticks != 20 {
		t.Errorf("ticks %d, want 20", res.Ticks)
	}
	if res.ProcessingPerTick <= 0 {
		t.Error("no processing time recorded")
	}
	var sb strings.Builder
	res.Fprint(&sb)
	if !strings.Contains(sb.String(), "Table IV") {
		t.Error("Fprint missing header")
	}
}
