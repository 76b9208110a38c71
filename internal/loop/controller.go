package loop

import "repro/internal/telemetry"

// LivenessSource is an optional extension of ReportSource for agents
// that can fail (internal/chaos wraps agents this way): a source
// reporting !Alive() contributes nothing this interval, and the
// controller tracks its staleness instead of treating silence as an
// idle rack.
type LivenessSource interface {
	// Alive reports whether the source can produce a report right now.
	Alive() bool
}

// Degradation defaults: evict after this many consecutive missed
// intervals, and freeze tuning when fewer than this fraction of the
// current membership reported.
const (
	DefaultStaleAfter = 3
	DefaultQuorumFrac = 0.5
)

// Controller is the centralized aggregation point: every monitor interval
// it takes the agents' local reports — pulled from Agents by Tick, or
// pushed to it through TickReports — merges them into the network-wide
// FSD, and fires the tuning trigger when the KL divergence between
// successive distributions exceeds θ.
//
// The controller degrades gracefully when agents fail (see
// LivenessSource): a dead agent is carried as a stale member for
// StaleAfter intervals — during which, if the present fraction drops
// below QuorumFrac, the trigger pipeline freezes — and is then evicted
// from the membership so a permanently lost rack cannot freeze tuning
// forever. Aggregation continues over the partial report set with the
// resulting FSDs flagged Degraded. An evicted agent that comes back is
// readmitted on its first live interval.
type Controller struct {
	// Agents are the per-ToR report sources Tick pulls from.
	Agents []ReportSource
	// Theta is the KL trigger threshold (Table III: 0.01).
	Theta float64
	// OnTrigger, if set, fires when traffic changed significantly.
	OnTrigger func(FSD)

	// StaleAfter is how many consecutive missed intervals a dead agent
	// stays a (stale) member before eviction; 0 means DefaultStaleAfter.
	StaleAfter int
	// QuorumFrac is the minimum present fraction of the membership below
	// which the trigger pipeline freezes; 0 means DefaultQuorumFrac.
	QuorumFrac float64
	// OnFault / OnRecover, if set, observe degradation transitions.
	// agent is the index into Agents, or -1 for controller-level events
	// (quorum). Faults: "agent_evict", "quorum_lost"; recoveries:
	// "agent_readmit", "quorum_ok".
	OnFault   func(fault string, agent int)
	OnRecover func(fault string, agent int)

	prev     FSD
	hasPrev  bool
	smoother Smoother
	missed   []int
	evicted  []bool

	// Current is the smoothed network-wide FSD (see Smoother); Raw is
	// the latest single-interval snapshot.
	Current FSD
	Raw     FSD
	// Locals retains the most recent interval's per-agent reports:
	// aligned with Agents (a zero Report for absent or evicted agents),
	// or the reports pushed to TickReports.
	// Per-switch tuning strategies consume each ToR's slice separately;
	// the network-wide aggregation above is unaffected.
	Locals []Report
	// Ticks and Triggers count intervals and trigger firings.
	Ticks    int
	Triggers int
	// LastKL is the divergence computed at the most recent tick.
	LastKL float64

	// Frozen reports that the last tick ran below quorum: the trigger
	// pipeline (smoothing, KL, OnTrigger) was held and callers should
	// hold tuning too. Degraded reports that at least one agent was
	// absent or evicted, so distributions are partial.
	Frozen   bool
	Degraded bool
	// Evictions, Readmits, and FrozenTicks count degradation activity.
	Evictions, Readmits, FrozenTicks int
	// PresentAgents is how many sources reported at the last tick.
	PresentAgents int

	// TM mirrors aggregation and degradation activity into the
	// telemetry registry; NewController points it at one nobody scrapes.
	TM *telemetry.MonitorMetrics
}

// noMetrics is what a controller records into until a caller attaches a
// registry's bundle.
var noMetrics = telemetry.NewMonitorMetrics(telemetry.NewRegistry())

// NewController wires agents with trigger threshold theta.
func NewController(theta float64, agents ...ReportSource) *Controller {
	return &Controller{Agents: agents, Theta: theta, TM: noMetrics}
}

// staleAfter / quorumFrac resolve the zero-value defaults.
func (c *Controller) staleAfter() int {
	if c.StaleAfter > 0 {
		return c.StaleAfter
	}
	return DefaultStaleAfter
}

func (c *Controller) quorumFrac() float64 {
	if c.QuorumFrac > 0 {
		return c.QuorumFrac
	}
	return DefaultQuorumFrac
}

// gather collects reports from live sources, advances staleness and
// eviction state, and returns the present reports plus the present and
// member counts.
func (c *Controller) gather() (locals []Report, present, members int) {
	if c.missed == nil {
		c.missed = make([]int, len(c.Agents))
		c.evicted = make([]bool, len(c.Agents))
	}
	if len(c.Locals) != len(c.Agents) {
		c.Locals = make([]Report, len(c.Agents))
	}
	for i := range c.Locals {
		c.Locals[i] = Report{}
	}
	for i, a := range c.Agents {
		alive := true
		if ls, ok := a.(LivenessSource); ok {
			alive = ls.Alive()
		}
		if alive {
			if c.evicted[i] {
				c.evicted[i] = false
				c.Readmits++
				c.TM.Readmits.Inc()
				if c.OnRecover != nil {
					c.OnRecover("agent_readmit", i)
				}
			}
			c.missed[i] = 0
			locals = append(locals, a.EndInterval())
			present++
			members++
			continue
		}
		if c.evicted[i] {
			continue
		}
		c.missed[i]++
		if c.missed[i] > c.staleAfter() {
			c.evicted[i] = true
			c.Evictions++
			c.TM.Evictions.Inc()
			if c.OnFault != nil {
				c.OnFault("agent_evict", i)
			}
			continue
		}
		members++
	}
	return locals, present, members
}

// Tick is the pull path: it gathers a report from every live agent,
// tracks membership, and closes the interval over the present reports
// (see TickReports for the rest). It returns the fresh network-wide FSD.
//
// Below quorum the partial aggregate is returned (flagged Degraded) but
// neither absorbed into the smoothed baseline nor compared for a
// trigger: a half-blind snapshot says more about which agents died than
// about the traffic, and letting it poison the EWMA would fire a bogus
// trigger the moment the quorum returns.
func (c *Controller) Tick() FSD {
	locals, present, members := c.gather()
	c.PresentAgents = present
	c.Degraded = len(c.Agents) > 0 && present < len(c.Agents)

	wasFrozen := c.Frozen
	c.Frozen = len(c.Agents) > 0 &&
		(members == 0 || float64(present)/float64(members) < c.quorumFrac())
	if c.Frozen != wasFrozen {
		if c.Frozen {
			if c.OnFault != nil {
				c.OnFault("quorum_lost", -1)
			}
		} else if c.OnRecover != nil {
			c.OnRecover("quorum_ok", -1)
		}
	}
	c.TM.PresentAgents.Set(float64(present))
	c.TM.Degraded.SetBool(c.Degraded)
	return c.close(locals)
}

// TickReports is the push path: it closes one monitor interval over the
// reports agents pushed (the ctrlrpc daemon), which become Locals. With
// no membership to track it never freezes or degrades.
func (c *Controller) TickReports(reports []Report) FSD {
	c.Locals = reports
	return c.close(reports)
}

// close aggregates one interval's reports, compares, and maybe triggers.
//
// Traffic-free intervals (the OFF gaps of an ON/OFF workload) are not
// treated as a traffic-pattern change: silence carries no distribution to
// adapt to, and comparing against it would re-trigger tuning at every
// round boundary. The previous distribution is kept until traffic
// reappears.
func (c *Controller) close(locals []Report) FSD {
	raw := Aggregate(locals...)
	raw.Degraded = c.Degraded
	c.Ticks++
	c.LastKL = 0
	c.Raw = raw
	c.TM.Ticks.Inc()
	c.TM.FSDFlows.Observe(float64(raw.Flows))
	c.TM.FSDBytes.Observe(raw.TotalBytes)
	if c.Frozen {
		c.FrozenTicks++
		c.TM.FrozenTicks.Inc()
		return raw
	}
	if raw.TotalBytes == 0 {
		c.Current = c.smoother.Update(raw) // no-op; keeps the average
		return c.Current
	}
	fsd := c.smoother.Update(raw)
	fsd.Degraded = c.Degraded
	c.Current = fsd
	c.TM.ElephantShare.Set(fsd.ElephantFlowShare)
	if c.hasPrev {
		c.LastKL = TriggerDivergence(fsd, c.prev)
		c.TM.LastKL.Set(c.LastKL)
		c.TM.KL.Observe(c.LastKL)
		if c.LastKL > c.Theta {
			c.Triggers++
			c.TM.Triggers.Inc()
			if c.OnTrigger != nil {
				c.OnTrigger(fsd)
			}
		}
	} else {
		// First traffic ever observed: the change from silence is a
		// pattern change by definition.
		c.Triggers++
		c.TM.Triggers.Inc()
		if c.OnTrigger != nil {
			c.OnTrigger(fsd)
		}
	}
	c.prev = fsd
	c.hasPrev = true
	return fsd
}
