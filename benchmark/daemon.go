package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ctrlrpc"
	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// daemonAgents is the number of per-ToR agents reporting each tick (the
// paper fabric has eight ToRs).
const daemonAgents = 8

// daemonReports pre-generates every agent report of the run. The flow size
// distribution flips between mice-dominant and elephant-dominant every 50
// ticks, so the KL trigger fires and tuner sessions run; runtime sums are
// drawn around a moderately loaded fabric.
func daemonReports(rng *rand.Rand, ticks int) []ctrlrpc.Report {
	out := make([]ctrlrpc.Report, 0, ticks*daemonAgents)
	for t := 1; t <= ticks; t++ {
		elephantPhase := (t/50)%2 == 1
		for a := 0; a < daemonAgents; a++ {
			r := ctrlrpc.Report{AgentID: uint32(a), Seq: uint64(t)}
			mice := 200e3 * (0.8 + 0.4*rng.Float64())
			elephants := 2e6 * (0.8 + 0.4*rng.Float64())
			if elephantPhase {
				mice, elephants = mice/8, elephants*4
			}
			r.Hist[monitor.BucketFor(2<<10)] = mice * 0.6
			r.Hist[monitor.BucketFor(8<<10)] = mice * 0.4
			r.Hist[monitor.BucketFor(4<<20)] = elephants
			r.MiceBytes, r.ElephantBytes = mice, elephants
			r.MiceFlowsW, r.ElephantFlowsW = 60, 3
			if elephantPhase {
				r.MiceFlowsW, r.ElephantFlowsW = 6, 12
			}
			r.Flows = int32(r.MiceFlowsW + r.ElephantFlowsW)
			r.ActiveLinks = 24
			r.UtilSum = float64(r.ActiveLinks) * (0.25 + 0.2*rng.Float64())
			r.RTTCount = 64
			r.RTTNormSum = float64(r.RTTCount) * (0.55 + 0.3*rng.Float64())
			r.Devices = 17
			r.PauseFracSum = float64(r.Devices) * 0.02 * rng.Float64()
			out = append(out, r)
		}
	}
	return out
}

// runDaemon is Table IV's control plane with no simulator: a ctrlrpc server
// on loopback with its guard and a file WAL, and one client that per tick
// uploads eight reports, ticks, and acknowledges any change, sending each
// tick only after the previous reply.
func runDaemon(c *runCtx) error {
	ticks := c.size.DaemonTicks
	reports := daemonReports(rand.New(rand.NewSource(c.seed)), ticks)

	dir, err := os.MkdirTemp(c.tmpDir, "ctrl_daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "wal.jsonl")
	wal, err := dispatch.OpenFileWAL(walPath)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	srvCfg := ctrlrpc.DefaultServerConfig()
	srvCfg.SA = harness.ParaleonScheme().SystemCfg.SA
	srvCfg.Seed = c.seed
	srvCfg.Telemetry = reg
	srvCfg.WAL = wal
	srv, err := ctrlrpc.Serve("127.0.0.1:0", srvCfg)
	if err != nil {
		wal.Close()
		return err
	}
	closed := false
	closeAll := func() error {
		if closed {
			return nil
		}
		closed = true
		err := srv.Close()
		if werr := wal.Close(); err == nil {
			err = werr
		}
		return err
	}
	defer closeAll()
	cl, err := ctrlrpc.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second

	// call wraps one client round trip in a span.
	call := func(name string, fn func() error) error {
		c.tr.begin(name)
		err := fn()
		c.tr.end()
		return err
	}
	tickUs := make([]float64, 0, ticks)
	h := newFNV()
	var acksSent, failed int
	var lastEpoch uint64
	var reportBytes, paramsBytes int64

	c.beginTimed()
	for t := 1; t <= ticks; t++ {
		start := time.Now()
		c.tr.begin("tick")
		err := func() error {
			for a := 0; a < daemonAgents; a++ {
				before := cl.BytesOut
				r := reports[(t-1)*daemonAgents+a]
				if err := call("ctrlrpc.report", func() error { return cl.SendReport(r) }); err != nil {
					return err
				}
				reportBytes = cl.BytesOut - before
			}
			before := cl.BytesIn
			var res ctrlrpc.TickResult
			if err := call("ctrlrpc.tick", func() error {
				var err error
				res, err = cl.Tick(uint64(t), interval.Duration())
				return err
			}); err != nil {
				return err
			}
			paramsBytes = cl.BytesIn - before
			if res.Epoch < lastEpoch || (res.Changed && res.Epoch != lastEpoch+1) || (!res.Changed && res.Epoch != lastEpoch) {
				return fmt.Errorf("epoch went %d -> %d (changed=%v)", lastEpoch, res.Epoch, res.Changed)
			}
			lastEpoch = res.Epoch
			hash := dispatch.VectorHash(&res.Params)
			h.word(res.Epoch)
			h.word(hash)
			if res.Changed {
				for a := 0; a < daemonAgents; a++ {
					ack := ctrlrpc.AckMsg{AgentID: uint32(a), Epoch: res.Epoch, VectorHash: hash, Applied: true}
					if err := call("ctrlrpc.ack", func() error { return cl.SendApplyAck(ack) }); err != nil {
						return err
					}
					acksSent++
				}
				if got := srv.EpochAcks(); got != daemonAgents {
					return fmt.Errorf("epoch %d credited %d of %d acks", res.Epoch, got, daemonAgents)
				}
			}
			return nil
		}()
		c.tr.end()
		tickUs = append(tickUs, float64(time.Since(start))/1e3)
		if err != nil {
			failed++
			c.failf("tick %d: %v", t, err)
			if failed > 10 {
				break
			}
		}
	}
	c.endTimed()

	st := srv.Stats()
	epoch, current := srv.Epoch(), srv.Current()
	if err := closeAll(); err != nil {
		c.failf("close: %v", err)
	}
	c.res.Attempted, c.res.Failed = ticks, failed
	if int(st.ApplyAcks) != acksSent {
		c.failf("server counted %d apply-acks, client sent %d", st.ApplyAcks, acksSent)
	}
	if epoch != lastEpoch {
		c.failf("server epoch %d, last tick answered %d", epoch, lastEpoch)
	}
	// The closed WAL must recover the server's last epoch and vector.
	reopened, err := dispatch.OpenFileWAL(walPath)
	if err != nil {
		return err
	}
	rec, err := dispatch.Recover(reopened)
	reopened.Close()
	switch {
	case err != nil:
		c.failf("wal recover: %v", err)
	case rec.Epoch != epoch:
		c.failf("wal recovers epoch %d, server ended at %d", rec.Epoch, epoch)
	case epoch > 0 && (rec.Committed == nil || *rec.Committed != current):
		c.failf("wal recovers a different vector than the server's current one")
	}
	h.word(epoch)
	h.word(dispatch.VectorHash(&current))
	c.setDigest(h)

	ex, host := c.res.Exact, c.res.Host
	ex["wire_bytes_per_tick"] = float64(cl.BytesIn+cl.BytesOut) / float64(ticks)
	ex["ctrlrpc.report_bytes"] = float64(reportBytes)
	ex["ctrlrpc.params_bytes"] = float64(paramsBytes)
	ex["dispatch.epochs"] = float64(epoch)
	ex["monitor.triggers"] = float64(st.Triggers)
	ex["core.dispatches"] = float64(st.Dispatches)
	if d := st.Dispatches + st.Rejects; d > 0 {
		ex["dispatch.guard_reject_ratio"] = float64(st.Rejects) / float64(d)
	}
	host["ticks_per_sec"] = float64(ticks) / c.res.WallS
	host["tick_us_p50"] = metrics.Percentile(tickUs, 0.5)
	host["ctrlrpc.tick_us_p99"] = metrics.Percentile(tickUs, 0.99)
	if st.Ticks > 0 {
		host["ctrlrpc.server_cpu_us_per_tick"] = float64(st.Processing.Microseconds()) / float64(st.Ticks)
	}
	return nil
}
