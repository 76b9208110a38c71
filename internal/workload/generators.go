package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PoissonConfig drives an open-loop datacenter workload: flows arrive as a
// Poisson process at an aggregate rate chosen so the participating hosts'
// links run at the target load, with sizes drawn from a CDF and endpoints
// drawn uniformly (src ≠ dst).
type PoissonConfig struct {
	// Hosts participate as sources and destinations; nil means all.
	Hosts []topology.NodeID
	// CDF is the flow-size distribution.
	CDF SizeCDF
	// Load is the target average utilization of each host's uplink
	// (paper default: 0.3).
	Load float64
	// Start and Duration bound the arrival process; Duration 0 means
	// run forever.
	Start    eventsim.Time
	Duration eventsim.Time
}

// PoissonGen is an installed Poisson workload.
type PoissonGen struct {
	net  *sim.Network
	cfg  PoissonConfig
	rate float64 // arrivals per second, aggregate
	rng  *rand.Rand

	// Launched counts arrivals so far.
	Launched int
}

// InstallPoisson schedules the workload on n and returns its handle.
func InstallPoisson(n *sim.Network, cfg PoissonConfig) (*PoissonGen, error) {
	if cfg.Load <= 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("workload: load %g outside (0,1]", cfg.Load)
	}
	if cfg.Hosts == nil {
		cfg.Hosts = n.Topo.Hosts()
	}
	if len(cfg.Hosts) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 hosts, have %d", len(cfg.Hosts))
	}
	mean := cfg.CDF.MeanBytes()
	if mean <= 0 {
		return nil, fmt.Errorf("workload: CDF %q has non-positive mean", cfg.CDF.Name())
	}
	g := &PoissonGen{
		net: n,
		cfg: cfg,
		rng: n.Eng.Rand(),
		// Aggregate bits/sec target divided by mean flow size.
		rate: cfg.Load * n.HostLinkBps() * float64(len(cfg.Hosts)) / (mean * 8),
	}
	n.Eng.Schedule(cfg.Start, g.arrive)
	return g, nil
}

// arrive launches one flow and schedules the next arrival.
func (g *PoissonGen) arrive() {
	now := g.net.Eng.Now()
	if g.cfg.Duration > 0 && now >= g.cfg.Start+g.cfg.Duration {
		return
	}
	g.launchOne()
	gap := eventsim.Time(g.rng.ExpFloat64() / g.rate * 1e9)
	if gap < 1 {
		gap = 1
	}
	g.net.Eng.After(gap, g.arrive)
}

func (g *PoissonGen) launchOne() {
	rng := g.rng
	hosts := g.cfg.Hosts
	si := rng.Intn(len(hosts))
	di := rng.Intn(len(hosts) - 1)
	if di >= si {
		di++
	}
	size := g.cfg.CDF.Sample(rng)
	g.net.StartFlow(hosts[si], hosts[di], size)
	g.Launched++
}

// AlltoallConfig drives the LLM-training collective of §IV-B: during the
// ON period every worker sends MessageBytes to every other worker; when
// the whole round completes, the workers "update the model" for OffTime
// before the next round.
type AlltoallConfig struct {
	Workers []topology.NodeID
	// MessageBytes per worker pair per round (paper: 12 MB at 20
	// workers).
	MessageBytes int64
	// OffTime is the model-update gap between rounds (paper: 20 ms).
	OffTime eventsim.Time
	// Rounds bounds the workload; 0 means run until the simulation ends.
	Rounds int
}

// AlltoallGen is an installed collective workload.
type AlltoallGen struct {
	net *sim.Network
	cfg AlltoallConfig

	pending map[uint64]bool
	inRound bool
	roundAt eventsim.Time
	stopped bool
	// FlowIDs records all flows launched across rounds.
	FlowIDs map[uint64]bool

	// RoundDurations records each completed round's elapsed time;
	// RoundEnds the virtual time each round finished.
	RoundDurations []eventsim.Time
	RoundEnds      []eventsim.Time
	// RoundsDone counts completed rounds.
	RoundsDone int
}

// InstallAlltoall schedules the collective on n.
func InstallAlltoall(n *sim.Network, cfg AlltoallConfig) (*AlltoallGen, error) {
	if len(cfg.Workers) < 2 {
		return nil, fmt.Errorf("workload: alltoall needs >= 2 workers")
	}
	if cfg.MessageBytes <= 0 {
		return nil, fmt.Errorf("workload: non-positive alltoall message size")
	}
	g := &AlltoallGen{
		net:     n,
		cfg:     cfg,
		pending: map[uint64]bool{},
		FlowIDs: map[uint64]bool{},
	}
	n.AddFlowCompleteHook(g.onComplete)
	n.Eng.Schedule(0, g.startRound)
	return g, nil
}

// Stop prevents further rounds from starting.
func (g *AlltoallGen) Stop() { g.stopped = true }

// AggregateGoodputBps reports a completed round's goodput: total payload
// bits moved divided by the round duration.
func (g *AlltoallGen) AggregateGoodputBps(round int) float64 {
	d := g.RoundDurations[round]
	if d <= 0 {
		return 0
	}
	n := int64(len(g.cfg.Workers))
	totalBits := float64(n * (n - 1) * g.cfg.MessageBytes * 8)
	return totalBits / d.Seconds()
}

func (g *AlltoallGen) startRound() {
	if g.stopped {
		return
	}
	if g.cfg.Rounds > 0 && g.RoundsDone >= g.cfg.Rounds {
		return
	}
	g.inRound = true
	g.roundAt = g.net.Eng.Now()
	for _, src := range g.cfg.Workers {
		for _, dst := range g.cfg.Workers {
			if src == dst {
				continue
			}
			id := g.net.StartFlow(src, dst, g.cfg.MessageBytes)
			g.pending[id] = true
			g.FlowIDs[id] = true
		}
	}
}

func (g *AlltoallGen) onComplete(rec sim.FlowRecord) {
	if !g.pending[rec.ID] {
		return
	}
	delete(g.pending, rec.ID)
	if len(g.pending) > 0 {
		return
	}
	// Round finished: record and enter the OFF period.
	g.inRound = false
	g.RoundDurations = append(g.RoundDurations, g.net.Eng.Now()-g.roundAt)
	g.RoundEnds = append(g.RoundEnds, g.net.Eng.Now())
	g.RoundsDone++
	if g.stopped || (g.cfg.Rounds > 0 && g.RoundsDone >= g.cfg.Rounds) {
		return
	}
	g.net.Eng.After(g.cfg.OffTime, g.startRound)
}

// InfluxConfig composes the §IV-B2 scenario: an alltoall training workload
// runs as background traffic, and a burst of FB_Hadoop (or RPC) traffic
// arrives partway through and competes for the fabric.
type InfluxConfig struct {
	Background AlltoallConfig
	// Burst arrives at Burst.Start for Burst.Duration.
	Burst PoissonConfig
}

// Influx is an installed influx scenario.
type Influx struct {
	Background *AlltoallGen
	Burst      *PoissonGen
}

// InstallInflux schedules both components.
func InstallInflux(n *sim.Network, cfg InfluxConfig) (*Influx, error) {
	bg, err := InstallAlltoall(n, cfg.Background)
	if err != nil {
		return nil, err
	}
	burst, err := InstallPoisson(n, cfg.Burst)
	if err != nil {
		return nil, err
	}
	return &Influx{Background: bg, Burst: burst}, nil
}
