package harness

import (
	"cmp"
	"fmt"
	"net"
	"time"

	"repro/internal/chaos"
	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Wire runs a Paraleon scheme's control plane the §IV-C testbed way: the
// data plane is simulated, but each ToR agent uploads its rack's report
// to a ctrlrpc controller over TCP, a tick driver closes the interval
// and applies the vector the controller returns, and every agent
// acknowledges it — as the prototype's agents talk to the Infrawaves
// controller. The in-process controller runs the scheme's own loop
// configuration (see serverConfig).
type Wire struct {
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
	// Epoch is the epoch on the controller's last answered tick.
	Epoch uint64
}

// testbedConfig is Paraleon behind an in-process TCP controller, on
// scale's fabric, loaded by wl for dur.
func testbedConfig(scale Scale, dur eventsim.Time, wl func(*sim.Network) error) RunConfig {
	cfg := scale.Config(ParaleonScheme(), dur, wl)
	cfg.Wire = &Wire{}
	return cfg
}

// serverConfig is the in-process controller of a wire run: the loop the
// scheme runs in process, starting from Scheme.Static, with the strategy
// core.Attach would pick — SystemCfg.Tuner, else the network's.
func serverConfig(cfg RunConfig, reg *telemetry.Registry) ctrlrpc.ServerConfig {
	sys := cfg.Scheme.SystemCfg
	return ctrlrpc.ServerConfig{
		Theta: sys.Theta, Weights: sys.Weights, SA: sys.SA,
		Tuner: cmp.Or(sys.Tuner, cfg.Net.Tuner), Bandit: sys.Bandit,
		Base: cfg.Scheme.Static, Seed: sys.Seed, Telemetry: reg,
	}
}

// wirePlane is a Run's Wire control plane: a redialing client for each
// ToR agent and, last, one for the tick driver.
type wirePlane struct {
	n        *sim.Network
	interval eventsim.Time
	sources  []loop.ReportSource
	// racks count each ToR's runtime metrics, aligned with sources.
	racks   []*monitor.RuntimeCollector
	clients []*ctrlrpc.ReconnClient
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
		n: n, interval: cfg.Interval, sources: sources,
		restartAt: cfg.Wire.RestartAt, tolerant: cfg.Faults != nil, res: res,
	}
	for _, tor := range tors {
		w.racks = append(w.racks, monitor.NewScopedRuntimeCollector(n, []topology.NodeID{tor}))
	}
	addr := cfg.Wire.Addr
	if addr == "" {
		w.srvCfg = serverConfig(cfg, reg)
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
		rc, err := ctrlrpc.DialReconnectingWith(addr, 10, 2*time.Millisecond, 20*time.Millisecond, sc.Seed+int64(i), dial)
		if err != nil {
			w.close()
			return nil, err
		}
		rc.TM = rpcTM
		w.clients = append(w.clients, rc)
	}
	return w, nil
}

// tick closes interval seq: every agent reports its rack, the driver
// ticks the controller, and a changed vector is applied to the fabric and
// acknowledged by every agent. The sample is the one the controller
// aggregates from the reports.
func (w *wirePlane) tick(seq int) (loop.RuntimeSample, error) {
	if seq == w.restartAt && w.srv != nil {
		// Kill the controller and bring a fresh one up on the same
		// address: established connections break, aggregation state is
		// lost, and every client must redial.
		w.srv.Close()
		srv, err := ctrlrpc.Serve(w.srv.Addr(), w.srvCfg)
		if err != nil {
			return loop.RuntimeSample{}, fmt.Errorf("harness: controller restart: %w", err)
		}
		w.srv = srv
		w.res.Kills++
	}
	st := &w.res.Wire
	var sums loop.RuntimeSums
	for i, src := range w.sources {
		r := ctrlrpc.Report{
			AgentID: uint32(i), Seq: uint64(seq),
			Report: src.EndInterval(), RuntimeSums: w.racks[i].Sums(w.interval),
		}
		_, before := w.clients[i].Traffic()
		if err := w.tolerate(w.clients[i].SendReport(r), &st.AgentErrors); err != nil {
			return loop.RuntimeSample{}, fmt.Errorf("harness: wire report: %w", err)
		}
		_, after := w.clients[i].Traffic()
		st.ReportBytes = int(after - before)
		st.AgentBytesOut += after - before
		sums.Add(r.RuntimeSums)
	}
	sample := sums.Sample()

	driver := len(w.sources)
	before, _ := w.clients[driver].Traffic()
	tick, err := w.clients[driver].Tick(uint64(seq), time.Duration(w.interval))
	if err := w.tolerate(err, &st.TickErrors); err != nil {
		return sample, fmt.Errorf("harness: wire tick: %w", err)
	}
	after, _ := w.clients[driver].Traffic()
	st.ParamsBytes = int(after - before)
	if err == nil {
		st.Epoch = tick.Epoch
	}
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
