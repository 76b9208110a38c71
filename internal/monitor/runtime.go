package monitor

import (
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/topology"
)

// RuntimeCollector samples per-interval throughput, RTT, and PFC metrics
// from a simulated network — the event-driven "runtime metric collection"
// half of Fig 2. Take-style counters mean each Sample covers exactly the
// time since the previous one, and also mean a given host/port must be
// owned by exactly one collector; scoped collectors (see
// NewScopedRuntimeCollector) partition the fabric for the §V multi-cluster
// deployment.
type RuntimeCollector struct {
	net *sim.Network
	// uplinks caches (host port, tor port) pairs per host link.
	uplinks []uplink
	// hosts and switches bound the collector's scope.
	hosts    []topology.NodeID
	switches []topology.NodeID
}

type uplink struct {
	host topology.NodeID
	tor  topology.NodeID
	// torPort is the ToR's local port index facing the host.
	torPort int
}

// NewRuntimeCollector indexes every host↔ToR link of n.
func NewRuntimeCollector(n *sim.Network) *RuntimeCollector {
	return NewScopedRuntimeCollector(n, n.Topo.ToRs())
}

// NewScopedRuntimeCollector indexes only the racks under the given ToRs:
// their host↔ToR links, their hosts' RTT probes, and their devices' PFC
// pause. Scopes of distinct collectors must not overlap (the take-style
// counters would steal from each other).
func NewScopedRuntimeCollector(n *sim.Network, tors []topology.NodeID) *RuntimeCollector {
	inScope := make(map[topology.NodeID]bool, len(tors))
	for _, tor := range tors {
		inScope[tor] = true
	}
	c := &RuntimeCollector{net: n, switches: append([]topology.NodeID(nil), tors...)}
	topo := n.Topo
	for i := range topo.Links {
		l := &topo.Links[i]
		a, b := topo.Nodes[l.A], topo.Nodes[l.B]
		switch {
		case a.Kind == topology.Host && b.Kind == topology.ToRSwitch && inScope[l.B]:
			c.uplinks = append(c.uplinks, uplink{host: l.A, tor: l.B, torPort: l.BPort})
			c.hosts = append(c.hosts, l.A)
		case b.Kind == topology.Host && a.Kind == topology.ToRSwitch && inScope[l.A]:
			c.uplinks = append(c.uplinks, uplink{host: l.B, tor: l.A, torPort: l.APort})
			c.hosts = append(c.hosts, l.B)
		}
	}
	return c
}

// Sample closes the interval of the given length and returns its metrics.
func (c *RuntimeCollector) Sample(interval eventsim.Time) RuntimeSample {
	return c.Sums(interval).Sample()
}

// Sums closes the interval of the given length and returns the scope's
// raw runtime-metric sums; loop.RuntimeSums.Sample divides them.
func (c *RuntimeCollector) Sums(interval eventsim.Time) loop.RuntimeSums {
	var s loop.RuntimeSums
	seconds := interval.Seconds()
	if seconds <= 0 {
		panic("monitor: non-positive interval")
	}

	// O_TP: utilization of each active uplink direction.
	for _, ul := range c.uplinks {
		hostPort := c.net.Host(ul.host).Port()
		torPort := c.net.Switch(ul.tor).Port(ul.torPort)
		for _, p := range []interface {
			TakeTxDataBytes() int64
			RateBps() float64
		}{hostPort, torPort} {
			bytes := p.TakeTxDataBytes()
			if bytes <= 0 {
				continue
			}
			util := float64(bytes*8) / (p.RateBps() * seconds)
			if util > 1 {
				util = 1
			}
			s.UtilSum += util
			s.ActiveLinks++
		}
	}

	// O_RTT: the scope's normalized RTT probe samples.
	for _, hn := range c.hosts {
		sum, count := c.net.Host(hn).TakeRTT()
		s.RTTNormSum += sum
		s.RTTCount += count
	}

	// O_PFC: per-device pause fraction over the scope.
	for _, sn := range c.switches {
		sw := c.net.Switch(sn)
		paused := sw.TakePausedTime()
		frac := float64(paused) / (float64(sw.NumPorts()) * float64(interval))
		if frac > 1 {
			frac = 1
		}
		s.PauseFracSum += frac
		s.Devices++
	}
	for _, hn := range c.hosts {
		paused := c.net.Host(hn).Port().TakePausedTime()
		frac := float64(paused) / float64(interval)
		if frac > 1 {
			frac = 1
		}
		s.PauseFracSum += frac
		s.Devices++
	}
	return s
}

// StartProbing arms RTT probing on the scope's hosts at the given period.
func (c *RuntimeCollector) StartProbing(every eventsim.Time) {
	for _, hn := range c.hosts {
		c.net.Host(hn).StartProbing(every)
	}
}
