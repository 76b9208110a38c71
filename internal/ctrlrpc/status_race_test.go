package ctrlrpc

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

// TestStatusScrapeRace scrapes one registry's /debug/status sections from
// a goroutine of its own while the daemon's Server.tick (on its connection
// goroutine) and a simulated core.System (on the test goroutine) keep
// ticking into it. Run with -race: status is copied out of each
// producer's cell under the cell's lock, never read from live state. No
// scrape may see a section go backwards, and once both loops stop, each
// section must equal the snapshot its producer's last tick left.
func TestStatusScrapeRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultServerConfig()
	cfg.SA = tuner.ShortSAConfig()
	cfg.Telemetry = reg
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second

	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sysCfg := core.DefaultSystemConfig()
	sysCfg.SA = tuner.ShortSAConfig()
	sysCfg.Telemetry = reg
	sys, err := core.Attach(n, sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartProbingOnly()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 64<<20)
	}

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		var ticks, vt int64
		scrapes := 0
		for {
			select {
			case <-stop:
				scraped <- scrapes
				return
			default:
			}
			st := reg.Status()
			if cs, ok := st["controller"].(controllerStatus); ok {
				if cs.Ticks < ticks {
					t.Errorf("controller ticks went back from %d to %d", ticks, cs.Ticks)
				}
				ticks = cs.Ticks
			}
			if ls, ok := st["control_loop"].(core.LoopStatus); ok {
				if ls.VirtualTimeNs < vt {
					t.Errorf("control_loop virtual time went back from %d to %d", vt, ls.VirtualTimeNs)
				}
				vt = ls.VirtualTimeNs
			}
			scrapes++
		}
	}()

	var lastTick eventsim.Time
	for tk := 0; tk < 60; tk++ {
		for a := uint32(0); a < 4; a++ {
			r := elephantReport(a, uint64(tk))
			if tk/20%2 == 1 {
				r.Hist[12], r.Hist[0] = 1000, 9000
			}
			if err := c.SendReport(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Tick(uint64(tk), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		n.Run(n.Eng.Now() + eventsim.Millisecond)
		lastTick = n.Eng.Now()
		sys.TickOnce()
	}
	close(stop)
	if got := <-scraped; got == 0 {
		t.Fatal("the scraper never ran")
	}

	st := reg.Status()
	s.mu.Lock()
	wantCtl := controllerStatus{
		Params:      s.current,
		Ticks:       s.stats.Ticks,
		Reports:     s.stats.Reports,
		Triggers:    s.stats.Triggers,
		Dispatches:  s.stats.Dispatches,
		Rejects:     s.stats.Rejects,
		Epoch:       s.epoch,
		EpochAcks:   len(s.acks),
		TunerActive: s.tuner.Active(),
		BestUtility: s.tuner.BestUtility(),
	}
	s.mu.Unlock()
	if got := st["controller"]; got != wantCtl {
		t.Errorf("controller section = %+v\nwant the last tick's %+v", got, wantCtl)
	}
	if wantCtl.Dispatches == 0 {
		t.Error("the daemon never dispatched: the scrape raced nothing but idle ticks")
	}

	ts := sys.Tuner.Stats()
	temp := 0.0
	if td, ok := sys.Tuner.(tuner.Temperatured); ok {
		temp = td.Temperature()
	}
	wantLoop := core.LoopStatus{
		VirtualTimeNs: int64(lastTick),
		Params:        *n.RNICParams(),
		Tuner:         sys.Tuner.Name(),
		Frozen:        sys.Controller.Frozen,
		Degraded:      sys.Controller.Degraded,
		PresentAgents: sys.Controller.PresentAgents,
		Triggers:      sys.Controller.Triggers,
		LastKL:        sys.Controller.LastKL,
		TunerActive:   sys.Tuner.Active(),
		Temperature:   temp,
		BestUtility:   sys.Tuner.BestUtility(),
		Iterations:    ts.Steps,
		Sessions:      ts.Sessions,
		Aborts:        ts.Aborts,
		Dispatches:    sys.Dispatches,
		Rollbacks:     sys.Rollbacks,
		DispatchPhase: sys.Dispatch.Phase().String(),
		DispatchEpoch: sys.Dispatch.Epoch(),
	}
	if got := st["control_loop"]; got != wantLoop {
		t.Errorf("control_loop section = %+v\nwant the last tick's %+v", got, wantLoop)
	}
	if wantLoop.Dispatches == 0 {
		t.Error("the simulated loop never dispatched")
	}
}
