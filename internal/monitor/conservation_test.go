package monitor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topology"
)

// evictionProneConfig is a deliberately tiny sketch so a short packet
// stream exercises Ostracism evictions and flagged residents.
func evictionProneConfig(base AgentConfig) AgentConfig {
	base.Sketch = sketch.Config{HeavyBuckets: 4, LightRows: 2, LightWidth: 64, Lambda: 4}
	return base
}

func reportTotal(r Report) float64 { return r.ElephantBytes + r.MiceBytes }

func histTotal(r Report) float64 {
	var t float64
	for _, v := range r.Hist {
		t += v
	}
	return t
}

// TestEndIntervalConservesBytes pins the flagged-residue fix: the report
// must account for every inserted byte exactly once, even after
// evictions leave flagged residents with Light Part residue. Before the
// fix that residue surfaced both inside the flows' estimates and in the
// light lump, so reports over-counted.
func TestEndIntervalConservesBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  AgentConfig
	}{
		{"naive", evictionProneConfig(NaiveElasticConfig())},
		{"ternary", evictionProneConfig(ParaleonAgentConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewSwitchAgent(tc.cfg, 1)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				flow := uint64(rng.Intn(16))
				pkt := netdev.NewDataPacket(flow, 0, 1, 0, rng.Intn(1460)+1, false)
				a.OnPacket(pkt, 0)
			}
			if a.Sketch().Evictions == 0 {
				t.Fatal("scenario produced no evictions; conservation not stressed")
			}
			total := float64(a.Sketch().TotalBytes)
			r := a.EndInterval()
			if got := reportTotal(r); math.Abs(got-total) > 1e-6 {
				t.Errorf("ElephantBytes+MiceBytes = %g, want %g (inserted)", got, total)
			}
			if got := histTotal(r); math.Abs(got-total) > 1e-6 {
				t.Errorf("sum(Hist) = %g, want %g (inserted)", got, total)
			}
		})
	}
}

// TestInsertOnceConservationProperty: with insert-once on, a packet
// crossing several measurement points is recorded at exactly one of
// them, so the agents' reports sum to the true byte total — no double
// counting across hops and none inside each sketch.
func TestInsertOnceConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := NewSwitchAgent(evictionProneConfig(ParaleonAgentConfig()), 1)
		b := NewSwitchAgent(evictionProneConfig(ParaleonAgentConfig()), 2)
		rng := rand.New(rand.NewSource(seed))
		var total float64
		for i := 0; i < 300; i++ {
			flow := uint64(rng.Intn(16))
			size := rng.Intn(1460) + 1
			pkt := netdev.NewDataPacket(flow, 0, 1, 0, size, false)
			total += float64(size)
			// Each packet traverses both switches; vary which sees it
			// first so both sketches take real inserts.
			if rng.Intn(2) == 0 {
				a.OnPacket(pkt, 0)
				b.OnPacket(pkt, 0)
			} else {
				b.OnPacket(pkt, 0)
				a.OnPacket(pkt, 0)
			}
		}
		got := reportTotal(a.EndInterval()) + reportTotal(b.EndInterval())
		return math.Abs(got-total) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAttachComposesWithOracle is the tap-clobbering regression test: a
// ground-truth oracle and a switch agent must both see traffic no matter
// which attaches first.
func TestAttachComposesWithOracle(t *testing.T) {
	topo, err := topology.NewClos(sim.DefaultConfig().Clos)
	if err != nil {
		t.Fatal(err)
	}
	src := topo.Hosts()[0]
	dst := topo.Hosts()[1]
	tor := topo.ToROf(src)

	attach := func(sw *netdev.Switch, o *Oracle, a *SwitchAgent, oracleFirst bool) {
		if oracleFirst {
			TapAll(sw, o.OnPacket)
			a.Attach(sw)
		} else {
			a.Attach(sw)
			TapAll(sw, o.OnPacket)
		}
	}

	for _, oracleFirst := range []bool{true, false} {
		sw := &netdev.Switch{}
		o := NewOracle(topo, tor)
		a := NewSwitchAgent(ParaleonAgentConfig(), 1)
		attach(sw, o, a, oracleFirst)
		pkt := netdev.NewDataPacket(9, src, dst, 0, 1000, false)
		sw.Tap(pkt, 0)
		if got := a.Sketch().TotalBytes; got != 1000 {
			t.Errorf("oracleFirst=%v: agent recorded %d bytes, want 1000", oracleFirst, got)
		}
		if got := reportTotal(o.EndInterval()); got != 1000 {
			t.Errorf("oracleFirst=%v: oracle recorded %g bytes, want 1000", oracleFirst, got)
		}
	}
}

// TestAttachTwiceComposes: two agents attached to one switch both run;
// insert-once makes the second skip, proving its tap fired.
func TestAttachTwiceComposes(t *testing.T) {
	sw := &netdev.Switch{}
	a1 := NewSwitchAgent(ParaleonAgentConfig(), 1)
	a2 := NewSwitchAgent(ParaleonAgentConfig(), 2)
	a1.Attach(sw)
	a2.Attach(sw)
	sw.Tap(netdev.NewDataPacket(1, 0, 1, 0, 1000, false), 0)
	if a1.Sketch().TotalBytes != 1000 {
		t.Error("first attached agent missed the packet")
	}
	if a2.Skipped != 1 {
		t.Error("second attached agent's tap never fired")
	}
}
