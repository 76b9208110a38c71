package baselines

import (
	"math"

	"repro/internal/dcqcn"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// DCQCNPlusConfig parameterizes the ICNP'18 scheme. DCQCN+ adapts two
// things to the runtime incast scale N (the number of concurrently
// congested flows at a receiver): the NP stretches its per-flow CNP
// interval ∝ N so the aggregate CNP rate stays bounded, and the RPs —
// told N via a field piggybacked on CNPs — shrink their rate-increase
// steps and stretch their increase timers so the aggregate injection ramp
// stays constant.
//
// In this reproduction the piggyback channel is a zero-latency bookkeeping
// step run each Interval (the real signal rides CNPs that deliver within
// microseconds, far below the adjustment period).
type DCQCNPlusConfig struct {
	// Interval is the adaptation period.
	Interval eventsim.Time
	// MaxScale caps the incast scale factor.
	MaxScale int
}

// DefaultDCQCNPlusConfig adapts every 500 µs with scale capped at 64.
func DefaultDCQCNPlusConfig() DCQCNPlusConfig {
	return DCQCNPlusConfig{Interval: 500 * eventsim.Microsecond, MaxScale: 64}
}

// DCQCNPlus is the installed scheme.
type DCQCNPlus struct {
	net  *sim.Network
	cfg  DCQCNPlusConfig
	base dcqcn.Params

	// rxScale is each receiver's current congested-inbound-flow count.
	rxScale map[topology.NodeID]int
	// overrides holds the per-host parameter structs we installed.
	overrides map[topology.NodeID]*dcqcn.Params

	ev     eventsim.EventID
	tickFn eventsim.Handler
	on     bool

	// Adjustments counts parameter rewrites.
	Adjustments int
}

// InstallDCQCNPlus prepares the scheme on n, adapting from the network's
// current shared RNIC setting, and has every host record its congested
// inbound flows for the scheme to drain.
func InstallDCQCNPlus(n *sim.Network, cfg DCQCNPlusConfig) *DCQCNPlus {
	for _, node := range n.Topo.Hosts() {
		n.Host(node).RecordCongestedInbound()
	}
	return &DCQCNPlus{
		net:       n,
		cfg:       cfg,
		base:      *n.RNICParams(),
		rxScale:   map[topology.NodeID]int{},
		overrides: map[topology.NodeID]*dcqcn.Params{},
	}
}

// Start arms the adaptation loop.
func (d *DCQCNPlus) Start() {
	if d.on {
		return
	}
	d.on = true
	d.arm()
}

// Stop halts adaptation and removes the per-host overrides.
func (d *DCQCNPlus) Stop() {
	if !d.on {
		return
	}
	d.on = false
	d.net.Eng.Cancel(d.ev)
	for node := range d.overrides {
		d.net.SetHostParams(node, nil)
	}
	d.overrides = map[topology.NodeID]*dcqcn.Params{}
}

// arm (re)schedules the adaptation tick through the timing wheel with a
// persistent handler — one event slot recycled tick after tick.
func (d *DCQCNPlus) arm() {
	if d.tickFn == nil {
		d.tickFn = func() {
			if !d.on {
				return
			}
			d.step()
			d.arm()
		}
	}
	d.ev = d.net.Eng.RearmAfter(d.ev, d.cfg.Interval, d.tickFn)
}

// scaleFor is the sender-side incast factor: the worst congested-receiver
// scale among its active destinations.
func (d *DCQCNPlus) scaleFor(host topology.NodeID) int {
	h := d.net.Host(host)
	scale := 1
	for _, dst := range h.ActiveDestinations() {
		if s := d.rxScale[dst]; s > scale {
			scale = s
		}
	}
	if scale > d.cfg.MaxScale {
		scale = d.cfg.MaxScale
	}
	return scale
}

func (d *DCQCNPlus) step() {
	// NP side: refresh each receiver's congested flow count and stretch
	// its CNP pacing proportionally.
	for _, node := range d.net.Topo.Hosts() {
		h := d.net.Host(node)
		n := h.TakeCongestedInbound()
		if n < 1 {
			n = 1
		}
		if n > d.cfg.MaxScale {
			n = d.cfg.MaxScale
		}
		d.rxScale[node] = n
	}
	// RP+NP side: rewrite each host's setting from its scale.
	for _, node := range d.net.Topo.Hosts() {
		rxN := d.rxScale[node]
		txN := d.scaleFor(node)
		if rxN == 1 && txN == 1 {
			if d.overrides[node] != nil {
				d.net.SetHostParams(node, nil)
				delete(d.overrides, node)
				d.Adjustments++
			}
			continue
		}
		p := d.overrides[node]
		if p == nil {
			cp := d.base
			p = &cp
			d.overrides[node] = p
			d.net.SetHostParams(node, p)
		}
		// NP: one CNP per flow per base·N interval.
		p.MinTimeBetweenCNPs = d.base.MinTimeBetweenCNPs * eventsim.Time(rxN)
		// RP: divide the per-flow ramp by N; stretch the timer by √N so
		// aggregate increase stays roughly constant without freezing
		// individual flows.
		p.AIRateBps = math.Max(1e6, d.base.AIRateBps/float64(txN))
		p.HAIRateBps = math.Max(10e6, d.base.HAIRateBps/float64(txN))
		p.RPGTimeReset = eventsim.Time(float64(d.base.RPGTimeReset) * math.Sqrt(float64(txN)))
		d.Adjustments++
	}
}
