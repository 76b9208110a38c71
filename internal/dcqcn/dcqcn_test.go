package dcqcn

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/eventsim"
)

func TestDefaultAndExpertParamsValid(t *testing.T) {
	d := DefaultParams()
	if err := d.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	e := ExpertParams()
	if err := e.Validate(); err != nil {
		t.Errorf("expert params invalid: %v", err)
	}
}

func TestExpertParamsMatchTable1(t *testing.T) {
	e := ExpertParams()
	if e.AIRateBps != 50e6 {
		t.Errorf("ai_rate = %g, want 50 Mbps", e.AIRateBps)
	}
	if e.HAIRateBps != 150e6 {
		t.Errorf("hai_rate = %g, want 150 Mbps", e.HAIRateBps)
	}
	if e.RateReduceMonitorPeriod != 80*eventsim.Microsecond {
		t.Errorf("rate_reduce_monitor_period = %v, want 80us", e.RateReduceMonitorPeriod)
	}
	if e.MinTimeBetweenCNPs != 96*eventsim.Microsecond {
		t.Errorf("min_time_between_cnps = %v, want 96us", e.MinTimeBetweenCNPs)
	}
	if e.KminBytes != 1600<<10 {
		t.Errorf("Kmin = %d, want 1600KB", e.KminBytes)
	}
	if e.KmaxBytes != 6400<<10 {
		t.Errorf("Kmax = %d, want 6400KB", e.KmaxBytes)
	}
	if e.PMax != 0.2 {
		t.Errorf("Pmax = %g, want 0.2", e.PMax)
	}
}

func TestValidateCatchesEachBadField(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.AIRateBps = 0 },
		func(p *Params) { p.HAIRateBps = -1 },
		func(p *Params) { p.RPGTimeReset = 0 },
		func(p *Params) { p.RPGByteReset = 0 },
		func(p *Params) { p.RPGThreshold = 0 },
		func(p *Params) { p.RateReduceMonitorPeriod = -1 },
		func(p *Params) { p.MinRateBps = 0 },
		func(p *Params) { p.G = 0 },
		func(p *Params) { p.G = 1.5 },
		func(p *Params) { p.AlphaUpdateInterval = 0 },
		func(p *Params) { p.InitialAlpha = -0.1 },
		func(p *Params) { p.MinTimeBetweenCNPs = -1 },
		func(p *Params) { p.KmaxBytes = p.KminBytes },
		func(p *Params) { p.PMax = 0 },
		func(p *Params) { p.PMax = 1.1 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestMarkProbability(t *testing.T) {
	p := DefaultParams()
	p.KminBytes = 100
	p.KmaxBytes = 200
	p.PMax = 0.5
	cases := []struct {
		q    int64
		want float64
	}{
		{0, 0}, {100, 0}, {150, 0.25}, {200, 1}, {500, 1}, {125, 0.125},
	}
	for _, c := range cases {
		if got := p.MarkProbability(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MarkProbability(%d) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuickMarkProbabilityMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint32) bool {
		qa, qb := int64(a), int64(b)
		if qa > qb {
			qa, qb = qb, qa
		}
		pa, pb := p.MarkProbability(qa), p.MarkProbability(qb)
		return pa <= pb && pa >= 0 && pb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecsCoverAllParams(t *testing.T) {
	specs := Specs()
	if len(specs) < 13 {
		t.Fatalf("only %d specs; the paper tunes 10+ parameters", len(specs))
	}
	seen := map[string]bool{}
	for i := range specs {
		s := &specs[i]
		if seen[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.Min >= s.Max {
			t.Errorf("%s: Min %g >= Max %g", s.Name, s.Min, s.Max)
		}
		if s.Step <= 0 {
			t.Errorf("%s: non-positive step", s.Name)
		}
		if s.ThroughputDir != IncrementForThroughput && s.ThroughputDir != DecrementForThroughput {
			t.Errorf("%s: missing throughput direction", s.Name)
		}
		// Defaults must fall inside the tunable range.
		d := DefaultParams()
		v := s.Get(&d)
		if v < s.Min || v > s.Max {
			t.Errorf("%s: default %g outside [%g,%g]", s.Name, v, s.Min, s.Max)
		}
	}
	for _, name := range []string{"ai_rate", "hai_rate", "rpg_time_reset", "rate_reduce_monitor_period", "min_time_between_cnps", "kmin", "kmax", "pmax"} {
		if !seen[name] {
			t.Errorf("missing spec %q", name)
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	p := ExpertParams()
	v := Vector(&p)
	q := DefaultParams()
	for i, spec := range Specs() {
		spec.Set(&q, v[i])
	}
	if q.AIRateBps != p.AIRateBps || q.KmaxBytes != p.KmaxBytes || q.PMax != p.PMax {
		t.Errorf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestSpecByName(t *testing.T) {
	if SpecByName("hai_rate") == nil {
		t.Error("hai_rate spec missing")
	}
	if SpecByName("no_such_param") != nil {
		t.Error("bogus name returned a spec")
	}
}

// --- RP state machine ---

func newTestRP(p Params) (*eventsim.Engine, *RP, *Params) {
	eng := eventsim.NewEngine(7)
	live := p
	rp := NewRP(eng, func() *Params { return &live }, 100e9)
	return eng, rp, &live
}

// An RP is two cache lines: a CNP touches nearly every field, and the
// timer fleet holds thousands of RPs.
func TestRPIs128Bytes(t *testing.T) {
	if got := unsafe.Sizeof(RP{}); got > 128 {
		t.Fatalf("RP is %d bytes, want at most 128", got)
	}
}

// NewRP calls its params func once, and the RP reads the vector it got from
// then on: not at Start, a cut, a throttled CNP, a byte credit, an early or
// a real increase-timer fire, CatchUp, Alpha or Stop.
func TestRPReadsParamsOnce(t *testing.T) {
	p := DefaultParams()
	us := eventsim.Microsecond
	calls := 0
	eng := eventsim.NewEngine(7)
	rp := NewRP(eng, func() *Params { calls++; return &p }, 100e9)
	rp.Start()
	eng.RunUntil(3 * us)
	rp.OnCNP() // a cut: the increase timer is due at 303 µs
	rp.OnCNP() // throttled by rate_reduce_monitor_period
	eng.RunUntil(eng.Now() + p.RateReduceMonitorPeriod)
	rp.OnCNP() // a cut: the due moves to 307 µs, the event stays at 303 µs
	rp.OnBytesSent(p.RPGByteReset)
	if rp.Cuts != 2 || rp.Increases != 1 {
		t.Fatalf("%d cuts and %d increases, want 2 and 1", rp.Cuts, rp.Increases)
	}
	eng.RunUntil(3*us + p.RPGTimeReset)
	if eng.Processed != 1 || rp.Increases != 1 {
		t.Fatalf("after the early fire: %d events, %d increases; want 1 and 1", eng.Processed, rp.Increases)
	}
	eng.RunUntil(7*us + p.RPGTimeReset)
	if eng.Processed != 2 || rp.Increases != 2 {
		t.Fatalf("after the real fire: %d events, %d increases; want 2 and 2", eng.Processed, rp.Increases)
	}
	rp.CatchUp()
	rp.Alpha()
	rp.Stop()
	if calls != 1 {
		t.Fatalf("the params func ran %d times, want 1", calls)
	}
}

// hyperCount saturates rather than wraps, and at saturation a hyper
// increase at the smallest hai_rate Specs() allows still reaches line rate.
func TestRPHyperCountSaturates(t *testing.T) {
	p := DefaultParams()
	p.HAIRateBps = 10e6
	_, rp, _ := newTestRP(p)
	rp.rc, rp.rt = p.MinRateBps, p.MinRateBps
	rp.bcStage, rp.tStage = int32(p.RPGThreshold), int32(p.RPGThreshold)
	rp.hyperCount = math.MaxInt32
	rp.increaseEvent(&p)
	if rp.hyperCount != math.MaxInt32 || rp.TargetRate() != 100e9 {
		t.Fatalf("hyperCount %d, rt %g; want %d and line rate", rp.hyperCount, rp.TargetRate(), math.MaxInt32)
	}
}

func TestRPStartsAtLineRate(t *testing.T) {
	_, rp, _ := newTestRP(DefaultParams())
	if rp.Rate() != 100e9 {
		t.Errorf("initial rate = %g, want line rate", rp.Rate())
	}
	if rp.Alpha() != 1 {
		t.Errorf("initial alpha = %g, want InitialAlpha=1", rp.Alpha())
	}
}

func TestRPCutOnCNP(t *testing.T) {
	eng, rp, _ := newTestRP(DefaultParams())
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	before := rp.Rate()
	rp.OnCNP()
	// alpha was 1 and was re-raised toward 1, so the cut is ~rc/2.
	if rp.Rate() >= before {
		t.Errorf("rate did not fall on CNP: %g -> %g", before, rp.Rate())
	}
	if rp.Rate() < before*0.45 || rp.Rate() > before*0.55 {
		t.Errorf("cut with alpha≈1 gave %g, want ≈ %g/2", rp.Rate(), before)
	}
	if rp.Cuts != 1 {
		t.Errorf("Cuts = %d, want 1", rp.Cuts)
	}
}

func TestRPRateReduceMonitorPeriodThrottlesCuts(t *testing.T) {
	p := DefaultParams()
	p.RateReduceMonitorPeriod = 100 * eventsim.Microsecond
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(10 * eventsim.Microsecond)
	rp.OnCNP()
	rp.OnCNP() // same instant: throttled
	if rp.Cuts != 1 {
		t.Fatalf("Cuts = %d, want 1 (second CNP within monitor period)", rp.Cuts)
	}
	eng.RunUntil(eng.Now() + 50*eventsim.Microsecond)
	rp.OnCNP() // still inside the period
	if rp.Cuts != 1 {
		t.Fatalf("Cuts = %d, want 1 after 50us", rp.Cuts)
	}
	eng.RunUntil(eng.Now() + 60*eventsim.Microsecond)
	rp.OnCNP() // past the period
	if rp.Cuts != 2 {
		t.Errorf("Cuts = %d, want 2 after period elapsed", rp.Cuts)
	}
}

func TestRPAlphaDecaysWithoutCNPs(t *testing.T) {
	p := DefaultParams()
	eng, rp, _ := newTestRP(p)
	rp.Start()
	a0 := rp.Alpha()
	eng.RunUntil(20 * p.AlphaUpdateInterval)
	if rp.Alpha() >= a0 {
		t.Errorf("alpha did not decay: %g -> %g", a0, rp.Alpha())
	}
	want := a0 * math.Pow(1-p.G, 20)
	if math.Abs(rp.Alpha()-want) > 1e-9 {
		t.Errorf("alpha = %g, want %g after 20 decay periods", rp.Alpha(), want)
	}
}

func TestRPAlphaRisesOnCNP(t *testing.T) {
	p := DefaultParams()
	p.InitialAlpha = 0
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	rp.OnCNP()
	if rp.Alpha() != p.G {
		t.Errorf("alpha after first CNP = %g, want g = %g", rp.Alpha(), p.G)
	}
}

func TestRPFastRecoveryClimbsTowardTarget(t *testing.T) {
	p := DefaultParams()
	p.RPGTimeReset = 10 * eventsim.Microsecond
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	rp.OnCNP()
	cut := rp.Rate()
	target := rp.TargetRate()
	// One timer elapse → one fast-recovery step: rc = (rc+rt)/2.
	eng.RunUntil(eng.Now() + p.RPGTimeReset + eventsim.Microsecond)
	want := (cut + target) / 2
	if math.Abs(rp.Rate()-want)/want > 0.01 {
		t.Errorf("after 1 fast recovery rate = %g, want %g", rp.Rate(), want)
	}
	// After many elapses the rate converges to the target.
	eng.RunUntil(eng.Now() + 20*p.RPGTimeReset)
	if rp.Rate() < target*0.99 {
		t.Errorf("rate %g did not converge to target %g", rp.Rate(), target)
	}
}

func TestRPHyperIncreaseAfterThreshold(t *testing.T) {
	p := DefaultParams()
	p.RPGThreshold = 2
	p.RPGTimeReset = 10 * eventsim.Microsecond
	p.HAIRateBps = 1e9
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	rp.OnCNP()
	rp.OnCNP() // drive the rate down hard
	// Feed byte-counter stages past threshold, and let timer stages pass
	// threshold too; then hyper increase should kick in.
	rp.OnBytesSent(3 * p.RPGByteReset)
	eng.RunUntil(eng.Now() + 5*p.RPGTimeReset)
	if rp.TargetRate() <= 50e9 {
		t.Errorf("target rate %g did not hyper-increase", rp.TargetRate())
	}
}

func TestRPByteCounterStages(t *testing.T) {
	p := DefaultParams()
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	rp.OnCNP()
	inc0 := rp.Increases
	rp.OnBytesSent(p.RPGByteReset - 1)
	if rp.Increases != inc0 {
		t.Error("increase fired before byte counter filled")
	}
	rp.OnBytesSent(1)
	if rp.Increases != inc0+1 {
		t.Errorf("Increases = %d, want %d after byte counter filled", rp.Increases, inc0+1)
	}
	// A large burst spanning several quanta yields several stages.
	rp.OnBytesSent(3 * p.RPGByteReset)
	if rp.Increases != inc0+4 {
		t.Errorf("Increases = %d, want %d after 3-quantum burst", rp.Increases, inc0+4)
	}
}

func TestRPNeverBelowMinRate(t *testing.T) {
	p := DefaultParams()
	p.RateReduceMonitorPeriod = 0
	eng, rp, _ := newTestRP(p)
	rp.Start()
	for i := 0; i < 200; i++ {
		eng.RunUntil(eng.Now() + eventsim.Microsecond)
		rp.OnCNP()
	}
	if rp.Rate() < p.MinRateBps {
		t.Errorf("rate %g fell below min rate %g", rp.Rate(), p.MinRateBps)
	}
}

func TestRPNeverAboveLineRate(t *testing.T) {
	p := DefaultParams()
	p.RPGTimeReset = 5 * eventsim.Microsecond
	p.HAIRateBps = 5e9
	eng, rp, _ := newTestRP(p)
	rp.Start()
	eng.RunUntil(10 * eventsim.Millisecond)
	if rp.Rate() > 100e9 {
		t.Errorf("rate %g exceeded line rate", rp.Rate())
	}
	if rp.TargetRate() > 100e9 {
		t.Errorf("target %g exceeded line rate", rp.TargetRate())
	}
}

func TestRPStopCancelsTimers(t *testing.T) {
	p := DefaultParams()
	eng, rp, _ := newTestRP(p)
	rp.Start()
	// A QP at line rate parks its increase timer: cut it below line rate
	// so there is a timer for Stop to cancel and for Start to restart.
	rp.OnCNP()
	rp.Stop()
	if rp.Running() {
		t.Error("Running() true after Stop")
	}
	if got := eng.Pending(); got != 0 {
		t.Errorf("Pending = %d after Stop, want 0", got)
	}
	eng.RunUntil(10 * eventsim.Millisecond)
	if rp.Increases != 0 {
		t.Errorf("timer fired after Stop: %d increases", rp.Increases)
	}
	// Start again must work.
	rp.Start()
	eng.RunUntil(eng.Now() + 2*p.RPGTimeReset + eventsim.Microsecond)
	if rp.Increases == 0 {
		t.Error("no increases after restart")
	}
}

func TestRPLiveParamSwap(t *testing.T) {
	p := DefaultParams()
	p.ClampTgtRate = true // pull the target down on cuts so increases are visible
	eng, rp, live := newTestRP(p)
	rp.Start()
	eng.RunUntil(eventsim.Microsecond)
	rp.OnCNP()
	eng.RunUntil(eng.Now() + 10*eventsim.Microsecond)
	rp.OnCNP() // target now well below line rate
	if rp.TargetRate() >= 100e9 {
		t.Fatalf("setup failed: target %g still at line rate", rp.TargetRate())
	}
	// Swap in a 100x larger AI step with threshold 1; the next additive
	// increase must use the new values.
	live.AIRateBps = 500e6
	live.RPGThreshold = 1
	rtBefore := rp.TargetRate()
	eng.RunUntil(eng.Now() + 3*live.RPGTimeReset + eventsim.Microsecond)
	if rp.TargetRate() < rtBefore+400e6 {
		t.Errorf("live param swap ignored: target moved %g -> %g", rtBefore, rp.TargetRate())
	}
}

// Property: under any CNP/byte/timer interleaving, rate stays within
// [MinRate, line rate] and alpha within [0, 1].
func TestQuickRPInvariants(t *testing.T) {
	p := DefaultParams()
	f := func(ops []byte) bool {
		eng, rp, _ := newTestRP(p)
		rp.Start()
		for _, op := range ops {
			eng.RunUntil(eng.Now() + eventsim.Time(op%50)*eventsim.Microsecond)
			switch op % 3 {
			case 0:
				rp.OnCNP()
			case 1:
				rp.OnBytesSent(int64(op) * 1024)
			case 2:
				// just let timers run
			}
			if rp.Rate() < p.MinRateBps || rp.Rate() > 100e9 {
				return false
			}
			if rp.Alpha() < 0 || rp.Alpha() > 1 {
				return false
			}
			if rp.TargetRate() > 100e9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- NP state machine ---

func TestNPPacesCNPs(t *testing.T) {
	p := DefaultParams()
	p.MinTimeBetweenCNPs = 50 * eventsim.Microsecond
	np := NewNP(&p)
	if !np.OnECNMarked(0) {
		t.Fatal("first marked packet must produce a CNP")
	}
	if np.OnECNMarked(10 * eventsim.Microsecond) {
		t.Error("CNP inside pacing window")
	}
	if np.OnECNMarked(49 * eventsim.Microsecond) {
		t.Error("CNP just inside pacing window")
	}
	if !np.OnECNMarked(50 * eventsim.Microsecond) {
		t.Error("CNP at window boundary suppressed")
	}
	if np.Marked != 4 || np.CNPs != 2 {
		t.Errorf("Marked/CNPs = %d/%d, want 4/2", np.Marked, np.CNPs)
	}
}

func TestNPZeroPacingSendsEveryTime(t *testing.T) {
	p := DefaultParams()
	p.MinTimeBetweenCNPs = 0
	np := NewNP(&p)
	for i := 0; i < 5; i++ {
		if !np.OnECNMarked(eventsim.Time(i)) {
			t.Fatalf("CNP %d suppressed with zero pacing", i)
		}
	}
}

// Property: CNP count never exceeds marked count, and with pacing window w
// the CNP rate is bounded by elapsed/w + 1.
func TestQuickNPPacingBound(t *testing.T) {
	f := func(gaps []uint16) bool {
		p := DefaultParams()
		p.MinTimeBetweenCNPs = 30 * eventsim.Microsecond
		np := NewNP(&p)
		now := eventsim.Time(0)
		for _, g := range gaps {
			now += eventsim.Time(g) * eventsim.Nanosecond
			np.OnECNMarked(now)
		}
		if np.CNPs > np.Marked {
			return false
		}
		maxCNPs := int(now/p.MinTimeBetweenCNPs) + 1
		return len(gaps) == 0 || np.CNPs <= maxCNPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
