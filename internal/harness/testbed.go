package harness

import (
	"fmt"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/tuner"
)

// Wire runs a Paraleon scheme's control plane the §IV-C testbed way: the
// data plane is simulated, but each ToR agent uploads its rack's report
// to a ctrlrpc controller over TCP, a tick driver closes the interval
// and applies the vector the controller returns, and every agent
// acknowledges it — as the prototype's agents talk to the Infrawaves
// controller.
type Wire struct {
	// Server configures the in-process controller on loopback; its Base
	// is Scheme.Static, the fabric's starting setting.
	Server ctrlrpc.ServerConfig
	// Addr, when set, names an already-running controller (e.g.
	// cmd/paraleon-controller) to use instead.
	Addr string
	// RestartAt, when positive, kills the in-process controller before
	// interval RestartAt closes and binds a fresh one on its address.
	RestartAt int
}

// WireStats is a Wire run's control-plane accounting.
type WireStats struct {
	// Server is the in-process controller's own accounting.
	Server ctrlrpc.ServerStats
	// ReportBytes / ParamsBytes are the observed sizes of one report and
	// one params frame (Table IV's data-transfer rows); AgentBytesOut
	// sums all reports.
	ReportBytes, ParamsBytes int
	AgentBytesOut            int64
	// AgentErrors and TickErrors count agent calls (reports, apply-ACKs)
	// and driver ticks that failed even after redial; Reconnects counts
	// the redials, and Drops, Dups and Truncs the injected frame faults.
	AgentErrors, TickErrors, Reconnects int
	Drops, Dups, Truncs                 int
}

// testbedConfig is Paraleon behind an in-process TCP controller with the
// compressed SA schedule, on scale's fabric, loaded by wl for dur.
func testbedConfig(scale Scale, dur eventsim.Time, wl func(*sim.Network) error) RunConfig {
	srv := ctrlrpc.DefaultServerConfig()
	srv.SA = tuner.ShortSAConfig()
	cfg := scale.Config(ParaleonScheme(), dur, wl)
	cfg.Wire = &Wire{Server: srv}
	return cfg
}

// rackReport closes agent id's interval seq on the rack under tor: its
// local FSD and its rack's runtime-metric sums, as the wire carries them.
func rackReport(n *sim.Network, tor topology.NodeID, a loop.ReportSource, id, seq int, interval eventsim.Time) ctrlrpc.Report {
	mr := a.EndInterval()
	r := ctrlrpc.Report{
		AgentID: uint32(id), Seq: uint64(seq), Flows: int32(mr.Flows), Hist: mr.Hist,
		ElephantBytes: mr.ElephantBytes, MiceBytes: mr.MiceBytes,
		ElephantFlowsW: mr.ElephantFlowsW, MiceFlowsW: mr.MiceFlowsW,
	}
	seconds := interval.Seconds()
	sw := n.Switch(tor)
	for port := range sw.NumPorts() {
		l := n.Topo.LinkAt(tor, port)
		host := l.A
		if host == tor {
			host = l.B
		}
		if n.Topo.Nodes[host].Kind != topology.Host {
			continue
		}
		hp := n.Host(host).Port()
		for _, p := range []*netdev.EgressPort{hp, sw.Port(port)} {
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

// wirePlane is a Run's Wire control plane: a redialing client for each
// ToR agent and, last, one for the tick driver.
type wirePlane struct {
	n        *sim.Network
	interval eventsim.Time
	tors     []topology.NodeID
	sources  []loop.ReportSource
	clients  []*ctrlrpc.ReconnClient
	// faulty are the connections that inject frame faults.
	faulty    []*chaos.FaultyConn
	srv       *ctrlrpc.Server
	srvCfg    ctrlrpc.ServerConfig
	restartAt int
	// tolerant is set under a fault schedule, where a failed call only
	// degrades its interval.
	tolerant bool
	res      *Result
}

// dialWire starts cfg.Wire's controller unless it names one, and
// connects a client for each of sources (one per ToR) and the driver.
func dialWire(n *sim.Network, cfg RunConfig, sources []loop.ReportSource, sc chaos.Scenario, reg *telemetry.Registry, res *Result) (*wirePlane, error) {
	tors := n.Topo.ToRs()
	if len(sources) != len(tors) {
		return nil, fmt.Errorf("harness: the wire needs one FSD source per ToR, have %d for %d", len(sources), len(tors))
	}
	w := &wirePlane{
		n: n, interval: cfg.Interval, tors: tors, sources: sources,
		restartAt: cfg.Wire.RestartAt, tolerant: cfg.Faults != nil, res: res,
	}
	addr := cfg.Wire.Addr
	if addr == "" {
		w.srvCfg = cfg.Wire.Server
		w.srvCfg.Base = cfg.Scheme.Static
		if w.srvCfg.Telemetry == nil {
			w.srvCfg.Telemetry = reg
		}
		var err error
		if w.srv, err = ctrlrpc.Serve("127.0.0.1:0", w.srvCfg); err != nil {
			return nil, err
		}
		addr = w.srv.Addr()
	}
	faults := sc.Conn
	if faults.Seed == 0 {
		faults.Seed = sc.Seed
	}
	rpcTM := telemetry.NewRPCMetrics(reg)
	for i := range len(tors) + 1 {
		// The driver gets clean connections: under a fault schedule its
		// job is to show the controller restart recovery, not to fight
		// frame faults too.
		faulty := faults.Enabled() && i < len(tors)
		dial := func(addr string) (*ctrlrpc.Client, error) {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			if faulty {
				f := faults
				f.Seed += int64(len(w.faulty) + 1)
				fc := f.Wrap(conn)
				w.faulty = append(w.faulty, fc)
				conn = fc
			}
			return ctrlrpc.NewClient(conn), nil
		}
		rc, err := ctrlrpc.DialReconnectingWith(addr, 10, 2*time.Millisecond, 20*time.Millisecond, dial)
		if err != nil {
			w.close()
			return nil, err
		}
		rc.TM = rpcTM
		rc.SeedBackoff(sc.Seed + int64(i))
		w.clients = append(w.clients, rc)
	}
	return w, nil
}

// tick closes interval seq: every agent reports its rack, the driver
// ticks the controller, and a changed vector is applied to the fabric and
// acknowledged by every agent. The sample is the one the controller
// aggregates from the reports.
func (w *wirePlane) tick(seq int) (loop.RuntimeSample, error) {
	sample := loop.RuntimeSample{ORTT: 1, OPFC: 1}
	if seq == w.restartAt && w.srv != nil {
		// Kill the controller and bring a fresh one up on the same
		// address: established connections break, aggregation state is
		// lost, and every client must redial.
		w.srv.Close()
		srv, err := ctrlrpc.Serve(w.srv.Addr(), w.srvCfg)
		if err != nil {
			return sample, fmt.Errorf("harness: controller restart: %w", err)
		}
		w.srv = srv
		w.res.Kills++
	}
	st := &w.res.Wire
	var util, rtt, pause float64
	var links, devices int32
	var rttN int64
	for i, tor := range w.tors {
		r := rackReport(w.n, tor, w.sources[i], i, seq, w.interval)
		_, before := w.clients[i].Traffic()
		if err := w.tolerate(w.clients[i].SendReport(r), &st.AgentErrors); err != nil {
			return sample, fmt.Errorf("harness: wire report: %w", err)
		}
		_, after := w.clients[i].Traffic()
		st.ReportBytes = int(after - before)
		st.AgentBytesOut += after - before
		util += r.UtilSum
		links += r.ActiveLinks
		rtt += r.RTTNormSum
		rttN += r.RTTCount
		pause += r.PauseFracSum
		devices += r.Devices
	}
	if links > 0 {
		sample.OTP, sample.ActiveLinks = util/float64(links), int(links)
	}
	if rttN > 0 {
		sample.ORTT, sample.RTTSamples = rtt/float64(rttN), rttN
	}
	if devices > 0 {
		sample.OPFC = 1 - pause/float64(devices)
	}

	driver := len(w.tors)
	before, _ := w.clients[driver].Traffic()
	tick, err := w.clients[driver].Tick(uint64(seq), time.Duration(w.interval))
	if err := w.tolerate(err, &st.TickErrors); err != nil {
		return sample, fmt.Errorf("harness: wire tick: %w", err)
	}
	after, _ := w.clients[driver].Traffic()
	st.ParamsBytes = int(after - before)
	if tick.Changed {
		w.n.ApplyParams(tick.Params)
		w.res.Dispatches++
		// Every agent confirms the applied (epoch, vector-hash) so the
		// controller's quorum view covers the whole fabric.
		hash := dispatch.VectorHash(&tick.Params)
		for i, c := range w.clients[:driver] {
			ack := ctrlrpc.AckMsg{AgentID: uint32(i), Epoch: tick.Epoch, VectorHash: hash, Applied: true}
			if err := w.tolerate(c.SendApplyAck(ack), &st.AgentErrors); err != nil {
				return sample, fmt.Errorf("harness: wire apply-ack: %w", err)
			}
		}
	}
	return sample, nil
}

// tolerate returns a failed call's error or, under a fault schedule, counts
// it in *lost instead: the interval degrades and the run goes on.
func (w *wirePlane) tolerate(err error, lost *int) error {
	if err != nil && w.tolerant {
		*lost++
		return nil
	}
	return err
}

// close records the redials, the injected frame faults and the
// controller's accounting in the run's result, then closes the clients
// and the controller.
func (w *wirePlane) close() {
	st := &w.res.Wire
	for _, c := range w.clients {
		st.Reconnects += c.Reconnects
	}
	for _, fc := range w.faulty {
		st.Drops += fc.Drops
		st.Dups += fc.Dups
		st.Truncs += fc.Truncs
	}
	for _, c := range w.clients {
		c.Close()
	}
	if w.srv != nil {
		st.Server = w.srv.Stats()
		w.srv.Close()
	}
}
