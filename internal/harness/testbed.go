package harness

import (
	"fmt"
	"time"

	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestbedConfig drives the §IV-C "real testbed" mode: the data plane is
// simulated, but the control plane is the real thing — per-ToR agents
// upload metrics to a ctrlrpc controller over TCP loopback and apply the
// parameters it returns, exactly as the prototype's switch/server agents
// talk to the Infrawaves controller.
type TestbedConfig struct {
	Scale    Scale
	Server   ctrlrpc.ServerConfig
	Duration eventsim.Time
	// Interval is λ_MI (the paper uses 30 ms on the testbed; the
	// reproduction default follows Scale.Interval).
	Interval eventsim.Time
	Workload func(n *sim.Network) error
	// DrainAfter keeps simulating (without control traffic) until every
	// started flow has a completion record or MaxTime is hit.
	DrainAfter bool
	MaxTime    eventsim.Time
	// ControllerAddr, when non-empty, connects to an already-running
	// controller (e.g. cmd/paraleon-controller) instead of starting one
	// in-process; Server is then ignored and Server stats are zero.
	ControllerAddr string
	// Telemetry selects the metrics registry the run instruments itself
	// against; nil means telemetry.Default().
	Telemetry *telemetry.Registry
}

// TestbedResult carries the run's series plus control-plane overheads.
type TestbedResult struct {
	Net     *sim.Network
	TP, RTT metrics.Series

	// Server is the controller's own accounting.
	Server ctrlrpc.ServerStats
	// ReportBytes / ParamsBytes are the observed wire sizes of one
	// report and one params frame (Table IV's data-transfer rows).
	ReportBytes, ParamsBytes int
	// AgentBytesOut sums all agent uploads.
	AgentBytesOut int64
	// Dispatches counts parameter applications to the fabric.
	Dispatches int
	// Incomplete counts started flows with no completion record when the
	// run ended; non-zero after a DrainAfter run means MaxTime cut it.
	Incomplete int
}

// rackView indexes the per-ToR scope an agent reports on.
type rackView struct {
	tor      topology.NodeID
	hosts    []topology.NodeID
	torPorts []int // host-facing ports on the ToR
}

func rackViews(n *sim.Network) []rackView {
	views := map[topology.NodeID]*rackView{}
	var order []topology.NodeID
	for _, tor := range n.Topo.ToRs() {
		views[tor] = &rackView{tor: tor}
		order = append(order, tor)
	}
	for i := range n.Topo.Links {
		l := &n.Topo.Links[i]
		a, b := n.Topo.Nodes[l.A], n.Topo.Nodes[l.B]
		switch {
		case a.Kind == topology.Host && b.Kind == topology.ToRSwitch:
			v := views[l.B]
			v.hosts = append(v.hosts, l.A)
			v.torPorts = append(v.torPorts, l.BPort)
		case b.Kind == topology.Host && a.Kind == topology.ToRSwitch:
			v := views[l.A]
			v.hosts = append(v.hosts, l.B)
			v.torPorts = append(v.torPorts, l.APort)
		}
	}
	out := make([]rackView, 0, len(order))
	for _, tor := range order {
		out = append(out, *views[tor])
	}
	return out
}

// rackReport closes agent id's interval seq: its local FSD and its
// rack's runtime-metric sums, as the wire carries them.
func rackReport(n *sim.Network, v rackView, a *monitor.SwitchAgent, id, seq int, interval eventsim.Time) ctrlrpc.Report {
	mr := a.EndInterval()
	r := ctrlrpc.Report{
		AgentID: uint32(id), Seq: uint64(seq), Flows: int32(mr.Flows), Hist: mr.Hist,
		ElephantBytes: mr.ElephantBytes, MiceBytes: mr.MiceBytes,
		ElephantFlowsW: mr.ElephantFlowsW, MiceFlowsW: mr.MiceFlowsW,
	}
	seconds := interval.Seconds()
	sw := n.Switch(v.tor)
	for i, host := range v.hosts {
		hp := n.Host(host).Port()
		tp := sw.Port(v.torPorts[i])
		for _, p := range []*netdev.EgressPort{hp, tp} {
			bytes := p.TakeTxDataBytes()
			if bytes <= 0 {
				continue
			}
			u := float64(bytes*8) / (p.RateBps() * seconds)
			if u > 1 {
				u = 1
			}
			r.UtilSum += u
			r.ActiveLinks++
		}
		s, c := n.Host(host).TakeRTT()
		r.RTTNormSum += s
		r.RTTCount += c
		hostPause := float64(hp.TakePausedTime()) / float64(interval)
		if hostPause > 1 {
			hostPause = 1
		}
		r.PauseFracSum += hostPause
		r.Devices++
	}
	swPause := float64(sw.TakePausedTime()) / (float64(sw.NumPorts()) * float64(interval))
	if swPause > 1 {
		swPause = 1
	}
	r.PauseFracSum += swPause
	r.Devices++
	return r
}

// RunTestbed executes one testbed-mode run against a live controller.
func RunTestbed(cfg TestbedConfig) (*TestbedResult, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Scale.Interval
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = cfg.Duration + 10*eventsim.Second
	}
	netCfg := cfg.Scale.Net
	netCfg.Params = cfg.Server.Base
	n, err := sim.New(netCfg)
	if err != nil {
		return nil, err
	}

	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	addr := cfg.ControllerAddr
	var srv *ctrlrpc.Server
	if addr == "" {
		srvCfg := cfg.Server
		if srvCfg.Telemetry == nil {
			srvCfg.Telemetry = reg
		}
		srv, err = ctrlrpc.Serve("127.0.0.1:0", srvCfg)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr = srv.Addr()
	}

	rpcTM := telemetry.NewRPCMetrics(reg)
	sketchTM := telemetry.NewSketchMetrics(reg)
	views := rackViews(n)
	agents := make([]*monitor.SwitchAgent, len(views))
	clients := make([]*ctrlrpc.Client, len(views))
	for i, v := range views {
		agents[i] = monitor.NewSwitchAgent(monitor.ParaleonAgentConfig(), uint64(i+1))
		agents[i].TM = sketchTM
		agents[i].Attach(n.Switch(v.tor))
		c, err := ctrlrpc.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.TM = rpcTM
		defer c.Close()
		clients[i] = c
	}
	driver, err := ctrlrpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	driver.TM = rpcTM
	defer driver.Close()

	for _, h := range n.Hosts {
		h.StartProbing(cfg.Interval / 4)
	}
	if err := cfg.Workload(n); err != nil {
		return nil, err
	}

	res := &TestbedResult{Net: n}
	ticks := int(cfg.Duration / cfg.Interval)
	for seq := 1; seq <= ticks; seq++ {
		n.Run(eventsim.Time(seq) * cfg.Interval)
		now := n.Eng.Now()
		var tpSum, rttSum float64
		var tpLinks int32
		var rttN int64
		for i, v := range views {
			r := rackReport(n, v, agents[i], i, seq, cfg.Interval)
			before := clients[i].BytesOut
			if err := clients[i].SendReport(r); err != nil {
				return nil, fmt.Errorf("testbed: report: %w", err)
			}
			res.ReportBytes = int(clients[i].BytesOut - before)
			res.AgentBytesOut += clients[i].BytesOut - before
			tpSum += r.UtilSum
			tpLinks += r.ActiveLinks
			rttSum += r.RTTNormSum
			rttN += r.RTTCount
		}
		beforeIn := driver.BytesIn
		tick, err := driver.Tick(uint64(seq), time.Duration(cfg.Interval))
		if err != nil {
			return nil, fmt.Errorf("testbed: tick: %w", err)
		}
		res.ParamsBytes = int(driver.BytesIn - beforeIn)
		if tick.Changed {
			n.ApplyParams(tick.Params)
			res.Dispatches++
			// Every agent confirms the applied (epoch, vector-hash) so the
			// controller's quorum view covers the whole fabric.
			hash := dispatch.VectorHash(&tick.Params)
			for i := range clients {
				ack := ctrlrpc.AckMsg{AgentID: uint32(i), Epoch: tick.Epoch, VectorHash: hash, Applied: true}
				if err := clients[i].SendApplyAck(ack); err != nil {
					return nil, fmt.Errorf("testbed: apply-ack: %w", err)
				}
			}
		}
		tp := 0.0
		if tpLinks > 0 {
			tp = tpSum / float64(tpLinks)
		}
		rtt := 1.0
		if rttN > 0 {
			rtt = rttSum / float64(rttN)
		}
		res.TP.Append(now, tp)
		res.RTT.Append(now, rtt)
	}
	if cfg.DrainAfter {
		drainFlows(n, cfg.Interval, cfg.MaxTime)
	}
	res.Incomplete = n.IncompleteFlows()
	if srv != nil {
		res.Server = srv.Stats()
	}
	return res, nil
}

// drainFlows runs n a step at a time until every started flow has a
// completion record or maxTime is reached. It ends on the receivers' view
// (see sim.Network.IncompleteFlows), as Run's drain does: the testbed's
// probe timers keep the engine busy, so RunUntilIdle would run to maxTime.
func drainFlows(n *sim.Network, step, maxTime eventsim.Time) {
	for n.Eng.Now() < maxTime && n.IncompleteFlows() > 0 {
		n.Run(min(n.Eng.Now()+step, maxTime))
	}
}
