package harness

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// loopDigest runs the simulated loop with strategy name for 80 intervals
// of a QuickScale alltoall with OFF gaps, with or without canary plans
// for the session-settling dispatches. It returns the FNV-1a digest of
// every dispatch (virtual time and vector), then the rollback, freeze,
// reject and trigger counts and the vector every ToR switch ends on.
func loopDigest(t *testing.T, name string, plans bool) uint64 {
	t.Helper()
	scale := QuickScale()
	n, err := sim.New(scale.Net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shootoutSystemCfg(name)
	cfg.Telemetry = telemetry.NewRegistry()
	if plans {
		cfg.Dispatch = dispatch.Config{Canary: 1, SettleIntervals: 2}
	}
	sys, err := core.Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	sys.OnDispatch = func(p dcqcn.Params) {
		fmt.Fprintf(h, "%d %016x\n", n.Eng.Now(), dispatch.VectorHash(&p))
	}
	sys.StartProbingOnly()
	sys.TriggerNow()
	if _, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
		Workers: n.Topo.Hosts()[:6], MessageBytes: 1 << 20, OffTime: eventsim.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 80; i++ {
		n.Run(eventsim.Time(i) * scale.Interval)
		sys.TickOnce()
	}
	if sys.Dispatches == 0 {
		t.Errorf("%s: the loop never dispatched", name)
	}
	fmt.Fprintf(h, "rollbacks=%d frozen=%d rejects=%d triggers=%d dispatches=%d\n",
		sys.Rollbacks, sys.FrozenIntervals, sys.GuardRejects, sys.Controller.Triggers, sys.Dispatches)
	for _, tor := range n.Topo.ToRs() {
		fmt.Fprintf(h, "tor %d %016x\n", tor, dispatch.VectorHash(n.SwitchParams(tor)))
	}
	fmt.Fprintf(h, "hosts %016x\n", dispatch.VectorHash(n.RNICParams()))
	return h.Sum64()
}

// TestSimLoopMatchesParent pins the simulated loop's decisions for every
// registered strategy with canary plans off and on, and for
// chaos-linkflap (a flapping uplink with rollback armed) with plans on,
// whose rollbacks restore through the pipeline. The digests were taken
// while plans off still bypassed the pipeline, and before the daemon and
// the simulated loop shared one decision step; neither change may move
// them.
func TestSimLoopMatchesParent(t *testing.T) {
	want := map[string]uint64{
		"bandit/plans-off":   0x621893c7d98bd529,
		"bandit/plans-on":    0x47a57408fe9dd964,
		"multiecn/plans-off": 0xa62d685e0a430100,
		"multiecn/plans-on":  0x63232c5ccba37254,
		"sa/plans-off":       0xd5b00ddafe7ba859,
		"sa/plans-on":        0xdca30e77d20af42c,
	}
	for _, name := range tuner.Names() {
		for _, plans := range []bool{false, true} {
			key := name + "/plans-off"
			if plans {
				key = name + "/plans-on"
			}
			if got := loopDigest(t, name, plans); got != want[key] {
				t.Errorf("%s: digest %#x, want %#x", key, got, want[key])
			}
		}
	}

	h := fnv.New64a()
	cfg := ChaosLinkFlapConfig(QuickScale(), 60*eventsim.Millisecond, 7, h)
	cfg.Scheme.SystemCfg.Telemetry = telemetry.NewRegistry()
	cfg.Scheme.SystemCfg.Dispatch = dispatch.Config{Canary: 1, SettleIntervals: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sys.Rollbacks == 0 {
		t.Error("chaos-linkflap never rolled back, so the restore path went unexercised")
	}
	fmt.Fprintf(h, "rollbacks=%d frozen=%d dispatches=%d triggers=%d\n",
		res.Sys.Rollbacks, res.Sys.FrozenIntervals, res.Dispatches, res.Triggers)
	if got, want := h.Sum64(), uint64(0x1a36ebf5c5b151b3); got != want {
		t.Errorf("chaos-linkflap: digest %#x, want %#x (%d rollbacks, %d dispatches)", got, want, res.Sys.Rollbacks, res.Dispatches)
	}
}
