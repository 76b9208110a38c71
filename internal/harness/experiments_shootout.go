package harness

import (
	"fmt"
	"io"
	"math"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// ShootoutCell is one (strategy × workload) outcome of the tuner
// shootout.
type ShootoutCell struct {
	Tuner    string
	Workload string
	// FinalUtility is the last smoothed delivered utility; MeanUtility
	// averages the raw trace over the whole run.
	FinalUtility float64
	MeanUtility  float64
	// ConvergeIters is the number of monitor intervals until the
	// smoothed delivered utility reached 95% of its final value (-1 if
	// it never did).
	ConvergeIters int
	// PauseFrac is the mean PFC pause fraction (1 − O_PFC): the safety
	// dimension a tuner must not trade away for throughput.
	PauseFrac float64
	// Sessions, Dispatches, and Rollbacks summarize loop activity.
	Sessions   int
	Dispatches int
	Rollbacks  int
}

// TunerShootoutResult is the head-to-head comparison of every tuning
// strategy across the shootout workloads.
type TunerShootoutResult struct {
	Tuners    []string
	Workloads []string
	Cells     map[string]ShootoutCell // keyed tuner + "/" + workload
}

func (r *TunerShootoutResult) key(tun, wl string) string { return tun + "/" + wl }

// Cell returns the (tuner, workload) cell, zero if absent.
func (r *TunerShootoutResult) Cell(tun, wl string) ShootoutCell {
	return r.Cells[r.key(tun, wl)]
}

// ShootoutTuners is the strategy lineup: every in-tree registry entry,
// raced under identical workloads, seeds, and horizons.
func ShootoutTuners() []string { return tuner.Names() }

// shootoutSystemCfg compresses each strategy's session to the scale of
// core.ShortSAConfig so all three settle within reproduction horizons,
// keeping the race about search quality rather than budget.
func shootoutSystemCfg(name string) core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.SA = tuner.ShortSAConfig()
	cfg.Tuner = name
	cfg.Bandit = tuner.BanditConfig{Budget: 20}
	cfg.MultiECN = tuner.MultiECNConfig{Budget: 20}
	return cfg
}

// shootoutScheme is one Paraleon arm running the named strategy.
func shootoutScheme(name string) Scheme {
	sc := ParaleonScheme()
	sc.Name = name
	sc.SystemCfg = shootoutSystemCfg(name)
	// Strategies that never trigger never race: the alltoall OFF gaps
	// can keep KL below θ for short horizons, so force the first
	// session like the pretraining runs do.
	sc.TriggerAtStart = true
	return sc
}

// TunerShootout races every registered strategy head-to-head across
// three workloads: a sustained cross-rack alltoall, a fan-in incast,
// and the chaos-linkflap scenario (alltoall with a flapping fabric
// uplink and rollback armed). Within a workload every arm sees the same
// fabric, seed, and horizon, so differences are attributable to the
// search strategy alone; with a fixed seed the whole table is
// deterministic across runs.
func TunerShootout(scale Scale, horizon eventsim.Time, seed int64) (*TunerShootoutResult, error) {
	res := &TunerShootoutResult{
		Tuners:    ShootoutTuners(),
		Workloads: []string{"alltoall", "incast", "chaos-linkflap"},
		Cells:     map[string]ShootoutCell{},
	}

	workloads := []struct {
		name    string
		install func(n *sim.Network) error
	}{
		{"alltoall", func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			w := 6
			if w > len(hosts) {
				w = len(hosts)
			}
			_, err := workload.InstallAlltoall(n, workload.AlltoallConfig{
				Workers:      hosts[:w],
				MessageBytes: 1 << 20,
				OffTime:      eventsim.Millisecond,
			})
			return err
		}},
		{"incast", func(n *sim.Network) error {
			hosts := n.Topo.Hosts()
			fan := 6
			if fan > len(hosts)-1 {
				fan = len(hosts) - 1
			}
			_, err := workload.InstallIncast(n, workload.IncastConfig{
				Aggregator:   hosts[0],
				FanIn:        fan,
				MessageBytes: 256 << 10,
				Gap:          eventsim.Millisecond / 2,
			})
			return err
		}},
	}

	// The two fault-free workloads fan out as one RunAll batch: every
	// (strategy × workload) arm is independent.
	var cfgs []RunConfig
	var keys []struct{ tun, wl string }
	for _, wl := range workloads {
		for _, name := range res.Tuners {
			cfgs = append(cfgs, RunConfig{
				Net:      scale.Net,
				Scheme:   shootoutScheme(name),
				Interval: scale.Interval,
				Duration: horizon,
				Workload: wl.install,
			})
			keys = append(keys, struct{ tun, wl string }{name, wl.name})
		}
	}
	results, err := RunAll(cfgs, scale.parallel())
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		res.Cells[res.key(keys[i].tun, keys[i].wl)] = shootoutCell(
			keys[i].tun, keys[i].wl, r.Utility.Values, r.PFC.Values,
			r.Rounds, r.Dispatches, 0)
	}

	// The chaos workload goes through the fault-injection runner: same
	// flapping-uplink scenario as chaos-linkflap, with rollback armed.
	for _, name := range res.Tuners {
		sysCfg := shootoutSystemCfg(name)
		sysCfg.Degrade = core.DegradeConfig{RollbackWindow: 3, RollbackMargin: 0.05}
		r, err := RunChaos(ChaosRunConfig{
			Scale:     scale,
			SystemCfg: sysCfg,
			Duration:  horizon,
			TraceTo:   io.Discard,
			ScenarioFn: func(n *sim.Network) chaos.Scenario {
				a, b, ferr := fabricLink(n)
				if ferr != nil {
					return chaos.Scenario{Seed: seed}
				}
				return chaos.Scenario{
					Seed: seed,
					Links: []chaos.LinkFault{{
						A: a, B: b,
						At:      horizon / 4,
						DownFor: 3 * eventsim.Millisecond,
						Flaps:   3,
						Every:   8 * eventsim.Millisecond,
					}},
				}
			},
			Workload: workloads[0].install,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: shootout %s under chaos: %w", name, err)
		}
		res.Cells[res.key(name, "chaos-linkflap")] = shootoutCell(
			name, "chaos-linkflap", r.Utility.Values, r.PFC.Values,
			0, r.Dispatches, r.Rollbacks)
	}
	return res, nil
}

// shootoutCell condenses one arm's series into its table cell.
func shootoutCell(tun, wl string, util, pfc []float64, sessions, dispatches, rollbacks int) ShootoutCell {
	c := ShootoutCell{
		Tuner: tun, Workload: wl,
		FinalUtility:  math.NaN(),
		MeanUtility:   metrics.Mean(util),
		ConvergeIters: -1,
		PauseFrac:     math.NaN(),
		Sessions:      sessions,
		Dispatches:    dispatches,
		Rollbacks:     rollbacks,
	}
	if sm := smoothed(util); len(sm) > 0 {
		c.FinalUtility = sm[len(sm)-1]
		target := 0.95 * c.FinalUtility
		for i, v := range sm {
			if v >= target {
				c.ConvergeIters = i
				break
			}
		}
	}
	if len(pfc) > 0 {
		c.PauseFrac = 1 - metrics.Mean(pfc)
	}
	return c
}

// Fprint renders the three-way comparison table.
func (r *TunerShootoutResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "tuner shootout: delivered utility, convergence, PFC safety")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "  %s:\n", wl)
		fmt.Fprintf(w, "    %-10s %8s %8s %8s %8s %6s %6s %6s\n",
			"tuner", "final", "mean", "to95%", "pause%", "sess", "disp", "rollbk")
		for _, tun := range r.Tuners {
			c := r.Cell(tun, wl)
			fmt.Fprintf(w, "    %-10s %8.3f %8.3f %8d %7.2f%% %6d %6d %6d\n",
				tun, c.FinalUtility, c.MeanUtility, c.ConvergeIters,
				100*c.PauseFrac, c.Sessions, c.Dispatches, c.Rollbacks)
		}
	}
}
