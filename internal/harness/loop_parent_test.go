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
// of a QuickScale alltoall with OFF gaps. It returns the FNV-1a digest of
// every dispatch (virtual time and vector), then the rollback, freeze,
// reject and trigger counts and the vector every ToR switch ends on.
func loopDigest(t *testing.T, name string) uint64 {
	t.Helper()
	scale := QuickScale()
	n, err := sim.New(scale.Net)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shootoutSystemCfg(name)
	cfg.Telemetry = telemetry.NewRegistry()
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
// strategy, and for chaos-linkflap (a flapping uplink with rollback
// armed), whose rollbacks restore through the pipeline. The digests were
// taken while the loop still bypassed the pipeline, before the daemon
// and the simulated loop shared one decision step, and while the
// pipeline still had a canary walk (the chaos-linkflap digest, then
// taken with the canary on, read the same with it off); none of those
// changes may move them. The sa, multiecn and chaos-linkflap digests
// were re-pinned when a new session began to open on the vector the
// fabric runs (the settled or restored one) instead of its previous
// chain's last point.
func TestSimLoopMatchesParent(t *testing.T) {
	want := map[string]uint64{
		"bandit":   0x621893c7d98bd529,
		"multiecn": 0x3d3cc87e19395062,
		"sa":       0xd06f4c82331a25bc,
	}
	for _, name := range tuner.Names() {
		if got := loopDigest(t, name); got != want[name] {
			t.Errorf("%s: digest %#x, want %#x", name, got, want[name])
		}
	}

	h := fnv.New64a()
	cfg := ChaosLinkFlapConfig(QuickScale(), 60*eventsim.Millisecond, 7, h)
	cfg.Scheme.SystemCfg.Telemetry = telemetry.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sys.Rollbacks == 0 {
		t.Error("chaos-linkflap never rolled back, so the restore path went unexercised")
	}
	fmt.Fprintf(h, "rollbacks=%d frozen=%d dispatches=%d triggers=%d\n",
		res.Sys.Rollbacks, res.Sys.FrozenIntervals, res.Dispatches, res.Triggers)
	if got, want := h.Sum64(), uint64(0x29548fe68c26171d); got != want {
		t.Errorf("chaos-linkflap: digest %#x, want %#x (%d rollbacks, %d dispatches)", got, want, res.Sys.Rollbacks, res.Dispatches)
	}
}
