package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dcqcn"
	"repro/internal/dispatch"
	"repro/internal/eventsim"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tuner"
)

func TestWeights(t *testing.T) {
	if err := tuner.DefaultWeights().Validate(); err != nil {
		t.Errorf("default weights invalid: %v", err)
	}
	if err := tuner.ThroughputWeights().Validate(); err != nil {
		t.Errorf("throughput weights invalid: %v", err)
	}
	bad := []tuner.Weights{
		{TP: 0.5, RTT: 0.5, PFC: 0.5},
		{TP: -0.2, RTT: 0.9, PFC: 0.3},
		{},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad weights %d validated", i)
		}
	}
}

func TestUtility(t *testing.T) {
	s := loop.RuntimeSample{OTP: 0.8, ORTT: 0.5, OPFC: 1}
	w := tuner.Weights{TP: 0.2, RTT: 0.5, PFC: 0.3}
	want := 0.2*0.8 + 0.5*0.5 + 0.3*1
	if got := tuner.Utility(s, w); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utility = %g, want %g", got, want)
	}
}

func TestQuickUtilityBounded(t *testing.T) {
	w := tuner.DefaultWeights()
	f := func(a, b, c uint8) bool {
		s := loop.RuntimeSample{
			OTP:  float64(a) / 255,
			ORTT: float64(b) / 255,
			OPFC: float64(c) / 255,
		}
		u := tuner.Utility(s, w)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSAConfigValidate(t *testing.T) {
	if err := tuner.DefaultSAConfig().Validate(); err != nil {
		t.Errorf("default SA config invalid: %v", err)
	}
	if err := tuner.NaiveSAConfig().Validate(); err != nil {
		t.Errorf("naive SA config invalid: %v", err)
	}
	bad := tuner.DefaultSAConfig()
	bad.CoolingRate = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("cooling rate 1.5 validated")
	}
	bad = tuner.DefaultSAConfig()
	bad.FinalTemp = 200
	if err := bad.Validate(); err == nil {
		t.Error("final > initial temperature validated")
	}
}

func TestSessionIterations(t *testing.T) {
	// 90 → 10 at 0.85: 90, 76.5, 65, … — 14 levels × 20 iterations.
	got := tuner.DefaultSAConfig().SessionIterations()
	if got < 200 || got > 320 {
		t.Errorf("default session = %d iterations, want ≈270", got)
	}
	// The relaxed schedule must be much shorter than the naive one.
	if naive := tuner.NaiveSAConfig().SessionIterations(); naive <= got {
		t.Errorf("naive session %d not longer than relaxed %d", naive, got)
	}
}

func elephantFSD() loop.FSD {
	var r loop.Report
	r.Hist[12] = 1000
	r.ElephantBytes = 900
	r.MiceBytes = 100
	r.ElephantFlowsW = 9
	r.MiceFlowsW = 1
	r.Flows = 10
	return loop.Aggregate(r)
}

func miceFSD() loop.FSD {
	var r loop.Report
	r.Hist[0] = 1000
	r.ElephantBytes = 100
	r.MiceBytes = 900
	r.ElephantFlowsW = 1
	r.MiceFlowsW = 29
	r.Flows = 30
	return loop.Aggregate(r)
}

func quickSA() tuner.SAConfig {
	return tuner.SAConfig{
		TotalIterNum: 3,
		CoolingRate:  0.5,
		InitialTemp:  30,
		FinalTemp:    10,
		Eta:          0.8,
		Guided:       true,
	}
}

func TestTunerIdleUntilTriggered(t *testing.T) {
	tu, err := tuner.NewSA(quickSA(), tuner.DefaultWeights(), dcqcn.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tu.Active() {
		t.Error("new tuner active")
	}
	if _, ok := tu.Step(loop.RuntimeSample{}, elephantFSD()); ok {
		t.Error("idle tuner produced params")
	}
}

func TestTunerSessionLifecycle(t *testing.T) {
	cfg := quickSA()
	tu, err := tuner.NewSA(cfg, tuner.DefaultWeights(), dcqcn.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tu.Trigger(elephantFSD())
	if !tu.Active() {
		t.Fatal("tuner not active after trigger")
	}
	sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.5, OPFC: 1}
	steps := 0
	for tu.Active() {
		p, ok := tu.Step(sample, elephantFSD())
		if !ok {
			t.Fatal("active tuner refused to step")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("dispatched invalid params at step %d: %v", steps, err)
		}
		steps++
		if steps > 1000 {
			t.Fatal("session never terminated")
		}
	}
	// Session length: first seeding step + one per iteration until the
	// temperature floor.
	want := cfg.SessionIterations()
	if steps < want || steps > want+2 {
		t.Errorf("session took %d steps, want ≈%d", steps, want)
	}
	if tu.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", tu.Rounds)
	}
}

func TestTunerBestUtilityMonotone(t *testing.T) {
	tu, _ := tuner.NewSA(quickSA(), tuner.DefaultWeights(), dcqcn.DefaultParams(), 2)
	tu.Trigger(miceFSD())
	// Feed varying utilities; the Trace (best-so-far) must be
	// nondecreasing.
	utils := []float64{0.3, 0.8, 0.2, 0.9, 0.1, 0.5, 0.85}
	i := 0
	for tu.Active() {
		u := utils[i%len(utils)]
		i++
		tu.Step(loop.RuntimeSample{ORTT: u / tuner.DefaultWeights().RTT * 0}, miceFSD())
		_ = u
		// Directly feed via OTP-only sample for controllable utility.
	}
	tu2, _ := tuner.NewSA(quickSA(), tuner.Weights{TP: 1}, dcqcn.DefaultParams(), 2)
	tu2.Trigger(miceFSD())
	i = 0
	for tu2.Active() {
		tu2.Step(loop.RuntimeSample{OTP: utils[i%len(utils)]}, miceFSD())
		i++
	}
	for j := 1; j < len(tu2.Trace); j++ {
		if tu2.Trace[j] < tu2.Trace[j-1] {
			t.Fatalf("best-so-far trace decreased at %d: %v", j, tu2.Trace)
		}
	}
	if tu2.BestUtility() != 90 {
		t.Errorf("best utility %g, want 90 (0.9 on the 0-100 scale)", tu2.BestUtility())
	}
}

func TestTunerBestParamsMatchBestUtility(t *testing.T) {
	// The params returned at session end must be the ones that were
	// live when the best utility was measured.
	tu, _ := tuner.NewSA(quickSA(), tuner.Weights{TP: 1}, dcqcn.DefaultParams(), 3)
	tu.Trigger(elephantFSD())
	var dispatched []dcqcn.Params
	var utilsFed []float64
	u := 0.1
	var last dcqcn.Params
	for tu.Active() {
		p, _ := tu.Step(loop.RuntimeSample{OTP: u}, elephantFSD())
		dispatched = append(dispatched, p)
		utilsFed = append(utilsFed, u)
		last = p
		u += 0.07
		if u > 0.95 {
			u = 0.11
		}
	}
	_ = dispatched
	_ = utilsFed
	// The last returned params are the session's best.
	if last != tu.Best() {
		t.Error("final dispatch is not the best setting")
	}
}

// The mutation-operator tests (guided bias, η exploration floor, naive
// ablation, validity under composition) moved to internal/tuner with the
// operator itself; see internal/tuner/sa_test.go.

func TestTunerRejectsBadInputs(t *testing.T) {
	if _, err := tuner.NewSA(tuner.SAConfig{}, tuner.DefaultWeights(), dcqcn.DefaultParams(), 1); err == nil {
		t.Error("zero SA config accepted")
	}
	if _, err := tuner.NewSA(quickSA(), tuner.Weights{}, dcqcn.DefaultParams(), 1); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := tuner.NewSA(quickSA(), tuner.DefaultWeights(), dcqcn.Params{}, 1); err == nil {
		t.Error("zero params accepted")
	}
}

// --- System (closed loop on a live network) ---

func quickSystem() SystemConfig {
	cfg := DefaultSystemConfig()
	cfg.SA = quickSA()
	return cfg
}

func TestSystemClosedLoop(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Attach(n, quickSystem())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hosts := n.Topo.Hosts()
	// Long elephants keep traffic alive through the whole session.
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 64<<20)
	}
	n.Run(15 * eventsim.Millisecond)
	if s.Controller.Ticks < 10 {
		t.Errorf("only %d controller ticks in 15 ms", s.Controller.Ticks)
	}
	if s.Controller.Triggers == 0 {
		t.Error("traffic onset did not trigger tuning (KL from empty FSD)")
	}
	if s.Dispatches == 0 {
		t.Error("no parameter dispatches during an active session")
	}
	s.Stop()
	ticksAtStop := s.Controller.Ticks
	n.Run(20 * eventsim.Millisecond)
	if s.Controller.Ticks != ticksAtStop {
		t.Error("controller kept ticking after Stop")
	}
}

// TestSystemRestartTicksOnce: Stop then Start between two interval ends
// keeps one tick per interval; the tick armed before Stop is the one that
// fires.
func TestSystemRestartTicksOnce(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Attach(n, quickSystem())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	n.Run(eventsim.Millisecond / 2)
	s.Stop()
	s.Start()
	n.Run(3 * eventsim.Millisecond)
	if s.Controller.Ticks != 3 {
		t.Errorf("%d ticks in 3 intervals across a Stop/Start, want 3", s.Controller.Ticks)
	}
}

func TestSystemSessionCompletes(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 256<<20)
	}
	// Session needs ≈7 intervals (quickSA) plus trigger latency.
	n.Run(30 * eventsim.Millisecond)
	if s.Tuner.Stats().Sessions == 0 {
		t.Error("tuning session never completed")
	}
	if s.Tuner.Active() {
		t.Error("tuner still active after enough intervals")
	}
	best := s.Tuner.Best()
	if err := best.Validate(); err != nil {
		t.Errorf("settled params invalid: %v", err)
	}
	// The settled setting must be live on the network.
	if *n.RNICParams() != s.Tuner.Best() {
		t.Error("network params differ from the tuner's best")
	}
}

func TestPretrain(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hosts := n.Topo.Hosts()
	for i := 1; i <= 3; i++ {
		n.StartFlow(hosts[i], hosts[0], 256<<20)
	}
	p, err := Pretrain(n, quickSystem(), 30*eventsim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("pretrained params invalid: %v", err)
	}
}

func TestSystemTunerSelection(t *testing.T) {
	for _, name := range []string{"", "sa", "bandit", "multiecn"} {
		n, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickSystem()
		cfg.Tuner = name
		s, err := Attach(n, cfg)
		if err != nil {
			t.Fatalf("Attach(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = "sa"
		}
		if got := s.Tuner.Name(); got != want {
			t.Errorf("cfg.Tuner=%q built strategy %q", name, got)
		}
	}
	// The network's sim.Config carries the selection when the system
	// config leaves it open.
	nc := sim.DefaultConfig()
	nc.Tuner = "bandit"
	n, err := sim.New(nc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Attach(n, quickSystem())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Tuner.Name(); got != "bandit" {
		t.Errorf("sim.Config.Tuner=bandit built strategy %q", got)
	}
	if _, err := Attach(n, func() SystemConfig { c := quickSystem(); c.Tuner = "nope"; return c }()); err == nil {
		t.Error("unknown strategy name accepted")
	}
}

// rogueTuner proposes a misordered vector (Kmin >= Kmax) every step; the
// pipeline's guard must refuse to push it onto the fabric.
type rogueTuner struct {
	tuner.Tuner
	active bool
}

func (r *rogueTuner) Trigger(loop.FSD) { r.active = true }
func (r *rogueTuner) Active() bool     { return r.active }
func (r *rogueTuner) Step(loop.RuntimeSample, loop.FSD) (dcqcn.Params, bool) {
	p := dcqcn.DefaultParams()
	p.KminBytes, p.KmaxBytes = p.KmaxBytes, p.KminBytes
	return p, true
}

// TestSystemGuardRejectsRogueProposals runs the rogue strategy with
// canary plans off and on: either way every refusal is counted once, in
// GuardRejects and the tuner_guard_rejects counter, and nothing reaches
// the fabric.
func TestSystemGuardRejectsRogueProposals(t *testing.T) {
	for _, canary := range []int{0, 1} {
		base, _ := tuner.New("sa", tuner.Config{
			Weights: tuner.DefaultWeights(), Base: dcqcn.DefaultParams(), SA: quickSA(),
		}, 1)
		n, err := sim.New(sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickSystem()
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Dispatch = dispatch.Config{Canary: canary}
		s, err := Attach(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Tuner = &rogueTuner{Tuner: base}
		s.wireStep()
		before := *n.RNICParams()
		s.Start()
		hosts := n.Topo.Hosts()
		n.StartFlow(hosts[1], hosts[0], 64<<20)
		s.TriggerNow()
		n.Run(10 * eventsim.Millisecond)
		if s.GuardRejects == 0 {
			t.Fatalf("canary %d: guard admitted misordered Kmin >= Kmax proposals", canary)
		}
		if got := s.TM.GuardRejects.Value(); got != int64(s.GuardRejects) {
			t.Errorf("canary %d: guard-reject counter %d, GuardRejects %d", canary, got, s.GuardRejects)
		}
		if s.Dispatches != 0 {
			t.Errorf("canary %d: %d rogue proposals dispatched", canary, s.Dispatches)
		}
		if *n.RNICParams() != before {
			t.Errorf("canary %d: rogue proposal reached the fabric", canary)
		}
	}
}

func TestSystemCustomSources(t *testing.T) {
	n, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSystem()
	cfg.Sources = []loop.ReportSource{} // no-FSD ablation
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Agents) != 0 {
		t.Error("sketch agents created despite custom sources")
	}
	s.Start()
	hosts := n.Topo.Hosts()
	n.StartFlow(hosts[1], hosts[0], 64<<20)
	n.Run(5 * eventsim.Millisecond)
	if s.Controller.Triggers != 0 {
		t.Error("empty sources produced a KL trigger")
	}
	// Manual trigger still drives the loop.
	s.TriggerNow()
	n.Run(10 * eventsim.Millisecond)
	if s.Dispatches == 0 {
		t.Error("no dispatches after manual trigger")
	}
}
