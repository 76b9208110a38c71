package harness

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestReplayMatchesClosedLoop: the closed loop acts on the fabric only
// through its apply schedule (sim.Network.Applied). Replaying that
// schedule on a static arm, each apply at the end of the instant it was
// made in, reproduces every completion record of the closed-loop run.
func TestReplayMatchesClosedLoop(t *testing.T) {
	const horizon = 40 * eventsim.Millisecond
	for _, wl := range []struct {
		name    string
		install func(*sim.Network) error
		drain   bool
	}{{"fb30-drained", fbPoisson(0.3, horizon), true}, {"alltoall", crossRackAlltoall, false}} {
		for _, strategy := range []string{"sa", "bandit"} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", wl.name, strategy, seed), func(t *testing.T) {
					run := func(sc Scheme, install func(*sim.Network) error) *Result {
						sc.SystemCfg.Telemetry = telemetry.NewRegistry()
						cfg := QuickScale().Config(sc, horizon, install)
						cfg.Net.Seed = seed
						cfg.DrainAfter, cfg.MaxTime = wl.drain, 10*horizon
						r, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					sc := ParaleonScheme()
					sc.SystemCfg.Tuner = strategy
					closed := run(sc, wl.install)
					if len(closed.Net.Applied) == 0 {
						t.Fatal("the closed loop applied nothing")
					}
					replay := run(DefaultScheme(), func(n *sim.Network) error {
						for _, a := range closed.Net.Applied {
							n.Eng.AtInstantEnd(a.At, func() {
								if a.ToRs == nil {
									n.ApplyParams(a.Params)
								} else {
									n.ApplyParamsToCluster(a.ToRs, a.Params)
								}
							})
						}
						return wl.install(n)
					})
					got, want := replay.Net.Completed, closed.Net.Completed
					if !slices.Equal(got, want) {
						i := 0
						for i < min(len(got), len(want)) && got[i] == want[i] {
							i++
						}
						t.Errorf("replaying %d applies: %d completions against the closed loop's %d, first difference at record %d",
							len(closed.Net.Applied), len(got), len(want), i)
					}
				})
			}
		}
	}
}
