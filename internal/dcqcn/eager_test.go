package dcqcn

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/eventsim"
)

// refRP is the reaction point as DCQCN describes it: two recurring engine
// timers, the rate-increase timer and the alpha-decay timer, each firing
// every interval for as long as the RP runs, with no parking, no lazy
// catch-up, and the increase timer's event rescheduled at every cut. It
// is the test oracle for RP, as eventsim's refEngine is for the timing
// wheel. idleFires counts the increase-timer fires armed while
// the QP sat at line rate (at Start, or by a fire that left it there):
// the clamped no-op increases RP skips by parking, and the only place the
// two may differ. A cut always arms a counted fire.
type refRP struct {
	eng    *eventsim.Engine
	params func() *Params

	lineRateBps float64

	rc, rt float64
	alpha  float64

	bcStage, tStage int
	byteCounter     int64
	hyperCount      int

	lastCut           eventsim.Time
	everCut           bool
	cnpSinceAlpha     bool
	increasedSinceCut bool

	timerFn, alphaFn eventsim.Handler
	timerEv, alphaEv eventsim.EventID
	running          bool
	armedAtLine      bool
	alphaDue         eventsim.Time // when the armed alpha timer fires

	Cuts, Increases, idleFires int
}

func newRefRP(eng *eventsim.Engine, params func() *Params, lineRateBps float64) *refRP {
	rp := &refRP{
		eng:         eng,
		params:      params,
		lineRateBps: lineRateBps,
		rc:          lineRateBps,
		rt:          lineRateBps,
		alpha:       params().InitialAlpha,
	}
	rp.timerFn = func() {
		if !rp.running {
			return
		}
		if rp.armedAtLine {
			rp.idleFires++
		}
		rp.tStage++
		rp.increaseEvent()
		rp.armedAtLine = rp.atLineRate()
		rp.timerEv = rp.eng.RearmAfter(rp.timerEv, rp.params().RPGTimeReset, rp.timerFn)
	}
	rp.alphaFn = func() {
		if !rp.running {
			return
		}
		if !rp.cnpSinceAlpha {
			rp.alpha *= 1 - rp.params().G
			if rp.alpha < alphaSnapFloor {
				rp.alpha = 0
			}
		}
		rp.cnpSinceAlpha = false
		rp.armAlpha()
	}
	return rp
}

func (rp *refRP) atLineRate() bool { return rp.rc >= rp.lineRateBps && rp.rt >= rp.lineRateBps }

func (rp *refRP) Start() {
	if rp.running {
		return
	}
	rp.running = true
	rp.armedAtLine = rp.atLineRate()
	rp.timerEv = rp.eng.RearmAfter(rp.timerEv, rp.params().RPGTimeReset, rp.timerFn)
	rp.armAlpha()
}

func (rp *refRP) armAlpha() {
	rp.alphaDue = rp.eng.Now() + rp.params().AlphaUpdateInterval
	rp.alphaEv = rp.eng.RearmAfter(rp.alphaEv, rp.params().AlphaUpdateInterval, rp.alphaFn)
}

func (rp *refRP) Stop() {
	if !rp.running {
		return
	}
	rp.running = false
	rp.eng.Cancel(rp.timerEv)
	rp.eng.Cancel(rp.alphaEv)
}

func (rp *refRP) OnCNP() {
	p := rp.params()
	rp.cnpSinceAlpha = true
	rp.alpha = (1-p.G)*rp.alpha + p.G
	now := rp.eng.Now()
	if rp.everCut && now-rp.lastCut < p.RateReduceMonitorPeriod {
		return
	}
	if p.ClampTgtRate || rp.increasedSinceCut {
		rp.rt = rp.rc
	}
	rp.rc = math.Max(p.MinRateBps, rp.rc*(1-rp.alpha/2))
	rp.lastCut = now
	rp.everCut = true
	rp.increasedSinceCut = false
	rp.bcStage, rp.tStage = 0, 0
	rp.byteCounter = 0
	rp.hyperCount = 0
	rp.Cuts++
	if rp.running {
		rp.armedAtLine = false
		rp.timerEv = rp.eng.RearmAfter(rp.timerEv, p.RPGTimeReset, rp.timerFn)
	}
}

func (rp *refRP) OnBytesSent(n int64) {
	p := rp.params()
	rp.byteCounter += n
	for rp.byteCounter >= p.RPGByteReset {
		rp.byteCounter -= p.RPGByteReset
		rp.bcStage++
		rp.increaseEvent()
	}
}

func (rp *refRP) increaseEvent() {
	p := rp.params()
	f := p.RPGThreshold
	switch {
	case rp.bcStage < f && rp.tStage < f:
	case rp.bcStage >= f && rp.tStage >= f:
		rp.hyperCount++
		rp.rt += float64(rp.hyperCount) * p.HAIRateBps
	default:
		rp.rt += p.AIRateBps
	}
	if rp.rt > rp.lineRateBps {
		rp.rt = rp.lineRateBps
	}
	rp.rc = (rp.rc + rp.rt) / 2
	if rp.rc > rp.lineRateBps {
		rp.rc = rp.lineRateBps
	}
	if rp.rc < p.MinRateBps {
		rp.rc = p.MinRateBps
	}
	rp.increasedSinceCut = true
	rp.Increases++
}

// rpSnapshot is what a caller can see of a reaction point. Floats compare
// bit for bit; Increases is the oracle's count less its idle fires.
type rpSnapshot struct {
	now             eventsim.Time
	rc, rt, alpha   float64
	cuts, increases int
	running         bool
}

func snapRP(rp *RP) rpSnapshot {
	return rpSnapshot{rp.eng.Now(), rp.Rate(), rp.TargetRate(), rp.Alpha(), rp.Cuts, rp.Increases, rp.Running()}
}

func snapRef(rp *refRP) rpSnapshot {
	return rpSnapshot{rp.eng.Now(), rp.rc, rp.rt, rp.alpha, rp.Cuts, rp.Increases - rp.idleFires, rp.running}
}

// Op kinds of an RP script. Every op first waits, then acts; a retune goes
// through CatchUp on the RP, as rnic.Host.SetParams does before a network
// setter writes, and a re-point is CatchUp then SetParams, as
// rnic.Host.SetParams does for every QP.
const (
	opCNP         = iota // wait, then a CNP
	opBytes              // wait, then bytes sent
	opGridCNP            // run to the reference's next alpha fire, then a CNP
	opIdle               // wait many alpha intervals
	opStop               // wait, then Stop
	opStart              // wait, then Start
	opRetuneG            // wait, then a new G
	opRetuneAlpha        // wait, then a new alpha_update_interval
	opRetuneTimer        // wait, then a new rpg_time_reset
	opRepoint            // wait, then a second vector with new G, alpha_update_interval and rpg_time_reset
	opKinds
)

type rpOp struct {
	kind  int
	wait  eventsim.Time
	value int // bytes sent, or the retune's raw value
}

// eagerPair drives an RP and its oracle through the same script, each on
// its own engine with its own live parameters and a spare vector that the
// next re-point fills and moves onto.
type eagerPair struct {
	t               *testing.T
	eng, rEng       *eventsim.Engine
	live, refLive   *Params
	spare, refSpare *Params
	rp              *RP
	ref             *refRP
}

func newEagerPair(t *testing.T, p Params) *eagerPair {
	e := &eagerPair{t: t, eng: eventsim.NewEngine(1), rEng: eventsim.NewEngine(1)}
	live, refLive, spare, refSpare := p, p, p, p
	e.live, e.refLive, e.spare, e.refSpare = &live, &refLive, &spare, &refSpare
	e.rp = NewRP(e.eng, func() *Params { return e.live }, 100e9)
	e.ref = newRefRP(e.rEng, func() *Params { return e.refLive }, 100e9)
	e.rp.Start()
	e.ref.Start()
	return e
}

// retune changes one parameter on both sides: through CatchUp on the RP,
// by plain assignment under the oracle's timers.
func (e *eagerPair) retune(set func(*Params)) {
	e.rp.CatchUp()
	set(e.live)
	set(e.refLive)
}

// repoint moves both sides onto the spare vector, filled with the live one
// but G, alpha_update_interval and rpg_time_reset drawn from value: the RP
// by CatchUp and SetParams, the oracle through its func. The vector left
// behind is the next re-point's spare.
func (e *eagerPair) repoint(value int) {
	next := *e.live
	next.G = float64(1+value%256) / 256
	next.AlphaUpdateInterval = eventsim.Time(1+value%97) * eventsim.Microsecond
	next.RPGTimeReset = eventsim.Time(1+value%293) * eventsim.Microsecond
	*e.spare, *e.refSpare = next, next
	e.rp.CatchUp()
	e.rp.SetParams(e.spare)
	e.live, e.spare = e.spare, e.live
	e.refLive, e.refSpare = e.refSpare, e.refLive
}

func (e *eagerPair) apply(i int, op rpOp) {
	e.t.Helper()
	wait := op.wait
	if op.kind == opGridCNP {
		wait = 0
		if e.ref.running {
			wait = e.ref.alphaDue - e.rEng.Now()
		}
	}
	e.eng.RunUntil(e.eng.Now() + wait)
	e.rEng.RunUntil(e.rEng.Now() + wait)
	switch op.kind {
	case opCNP, opGridCNP:
		e.rp.OnCNP()
		e.ref.OnCNP()
	case opBytes:
		e.rp.OnBytesSent(int64(op.value))
		e.ref.OnBytesSent(int64(op.value))
	case opStop:
		e.rp.Stop()
		e.ref.Stop()
	case opStart:
		e.rp.Start()
		e.ref.Start()
	case opRetuneG:
		e.retune(func(p *Params) { p.G = float64(1+op.value%256) / 256 })
	case opRetuneAlpha:
		e.retune(func(p *Params) { p.AlphaUpdateInterval = eventsim.Time(1+op.value%100) * eventsim.Microsecond })
	case opRetuneTimer:
		e.retune(func(p *Params) { p.RPGTimeReset = eventsim.Time(1+op.value%300) * eventsim.Microsecond })
	case opRepoint:
		e.repoint(op.value)
	}
	if got, want := snapRP(e.rp), snapRef(e.ref); got != want {
		e.t.Fatalf("op %d %+v diverges from the eager reference:\n  rp:  %+v\n  ref: %+v", i, op, got, want)
	}
}

func (e *eagerPair) run(script []rpOp) {
	e.t.Helper()
	for i, op := range script {
		e.apply(i, op)
	}
}

// quiescenceScript walks an RP through congestion (cuts off line rate,
// alpha pumped up), recovery to line rate (the increase timer parks), a
// long idle stretch (alpha decays, with a large G through the snap floor
// to exactly 0), a CNP off any grid point, one exactly on a grid
// nanosecond, a recovery by bytes alone, retunes of all three timer
// parameters mid-grid, a stop and restart, and a last idle tail.
func quiescenceScript(p Params) []rpOp {
	us := eventsim.Microsecond
	i := p.AlphaUpdateInterval
	return []rpOp{
		{kind: opCNP, wait: 3 * us},
		{kind: opCNP, wait: p.RateReduceMonitorPeriod + us},
		{kind: opBytes, value: int(p.RPGByteReset * 2)},
		{kind: opIdle, wait: 600 * i},
		{kind: opCNP, wait: i/3 + 7},
		{kind: opGridCNP},
		{kind: opCNP, wait: i / 2},
		{kind: opCNP, wait: p.RateReduceMonitorPeriod + us},
		// Byte stages alone bring the rate back to line rate while the
		// increase timer is armed: the timer's next fire still counts.
		{kind: opBytes, value: int(80 * p.RPGByteReset)},
		{kind: opRetuneAlpha, wait: i / 4, value: 20},
		{kind: opRetuneG, wait: 3 * i, value: 127},
		{kind: opRetuneTimer, wait: 5 * us, value: 40},
		{kind: opIdle, wait: 600 * i},
		{kind: opGridCNP},
		{kind: opStop, wait: 13},
		{kind: opCNP, wait: i},
		{kind: opStart, wait: 2 * i},
		{kind: opRetuneAlpha, wait: 0, value: 54},
		{kind: opCNP, wait: 13},
		{kind: opIdle, wait: 20 * i},
	}
}

// stormScript is sustained throttling from line rate: a CNP every `every`
// ns for 3.5 rpg_time_reset, each a cut if every ≥
// rate_reduce_monitor_period. One CNP lands on the nanosecond the increase
// timer armed by the first cut fires early. Mid-storm rpg_time_reset is
// retuned down to `down` µs, so the next cut's due falls before the pending
// one, and the storm pauses over that due's fire; later it is retuned
// up to `up` µs. Then the QP goes quiet until the timer fires, `up` µs
// after the last cut.
func stormScript(p Params, every eventsim.Time, down, up int) []rpOp {
	var script []rpOp
	var now eventsim.Time
	at := func(t eventsim.Time, kind, value int) {
		script = append(script, rpOp{kind: kind, wait: t - now, value: value})
		now = t
	}
	T := p.RPGTimeReset
	first := 3 * eventsim.Microsecond
	t := first
	for ; t <= first+T-every; t += every {
		at(t, opCNP, 0)
	}
	for t = first + T; t < first+3*T/2; t += every {
		at(t, opCNP, 0)
	}
	at(t, opRetuneTimer, down-1)
	at(t, opCNP, 0)
	at(t+eventsim.Time(down)*eventsim.Microsecond, opIdle, 0)
	for t = now + every; t < first+5*T/2; t += every {
		at(t, opCNP, 0)
	}
	at(t, opRetuneTimer, up-1)
	for ; t < first+7*T/2; t += every {
		at(t, opCNP, 0)
	}
	fire := now + eventsim.Time(up)*eventsim.Microsecond
	at(fire-1, opIdle, 0)
	at(fire, opIdle, 0)
	return script
}

// fuzzInput encodes a script of CNPs, idle waits and rpg_time_reset
// retunes to a value below 256 as FuzzRPMatchesEager's bytes, after the
// leading head byte. A wait no op can hold becomes idle ops before it.
func fuzzInput(head byte, script []rpOp) []byte {
	in := []byte{head}
	for _, op := range script {
		// An op's last two bytes are its wait (a, s: a << s ns); a
		// retune's are also its value, so it waits op.value ns.
		last := []byte{0, 0}
		if op.kind == opRetuneTimer {
			op.wait -= eventsim.Time(op.value)
			last[0] = byte(op.value)
		}
		var chunks []byte
		for w := op.wait; w > 0; {
			s := min(max(bits.Len64(uint64(w))-8, 0), 15)
			a := min(w>>s, 255)
			chunks = append(chunks, byte(a), byte(s))
			w -= a << s
		}
		if op.kind != opRetuneTimer && len(chunks) > 0 {
			last, chunks = chunks[len(chunks)-2:], chunks[:len(chunks)-2]
		}
		for ; len(chunks) > 0; chunks = chunks[2:] {
			in = append(in, opIdle, chunks[0], chunks[1])
		}
		in = append(in, byte(op.kind), last[0], last[1])
	}
	return in
}

// randomScript draws n ops; every seventh wait or so is a long idle gap.
func randomScript(rng *rand.Rand, p Params, n int) []rpOp {
	script := make([]rpOp, n)
	for k := range script {
		op := rpOp{kind: rng.Intn(opKinds), wait: eventsim.Time(rng.Int63n(int64(5 * p.AlphaUpdateInterval))), value: rng.Intn(1 << 16)}
		if op.kind == opIdle {
			op.wait = eventsim.Time(500+rng.Intn(200)) * p.AlphaUpdateInterval
		}
		script[k] = op
	}
	return script
}

// TestRPMatchesEagerReference: after every op of every script — scripted
// and randomized, under CNPs, bytes sent, waits, Stop/Start, retunes of G,
// alpha_update_interval and rpg_time_reset, and re-points onto another
// vector — RP shows what the two-timer reference shows, bit for bit.
func TestRPMatchesEagerReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Params)
	}{
		{"default", func(p *Params) {}},
		{"initial-alpha-0", func(p *Params) { p.InitialAlpha = 0 }},
		{"clamp-tgt", func(p *Params) { p.ClampTgtRate = true }},
		// G = 1/2 decays alpha to the snap floor in ~70 intervals, so the
		// idle stretches reach alpha 0 and the grid jump.
		{"fast-decay", func(p *Params) { p.G = 0.5; p.InitialAlpha = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			newEagerPair(t, p).run(quiescenceScript(p))
		})
	}
	// Under a cut every rate_reduce_monitor_period + 7 ns the increase
	// timer's due moves at every cut and its event fires early.
	t.Run("cnp-storm", func(t *testing.T) {
		p := DefaultParams()
		up := 250 * eventsim.Microsecond
		e := newEagerPair(t, p)
		e.run(append(stormScript(p, p.RateReduceMonitorPeriod+7, 50, 250),
			// Timer stages past F, then hyper increases by bytes sent bring
			// the QP back to line rate, and the next fire parks the timer.
			rpOp{kind: opIdle, wait: 5 * up},
			rpOp{kind: opBytes, value: int(200 * p.RPGByteReset)},
			rpOp{kind: opIdle, wait: 2 * up}))
		if got := e.eng.Pending(); got != 0 {
			t.Fatalf("Pending = %d after the storm's recovery, want 0 (timer parked)", got)
		}
	})
	// A QP stopped with its timer armed at line rate restarts parked; its
	// next cut arms a timer that fires one rpg_time_reset later.
	t.Run("stop-armed-at-line-rate", func(t *testing.T) {
		p := DefaultParams()
		us := eventsim.Microsecond
		newEagerPair(t, p).run([]rpOp{
			{kind: opCNP, wait: 3 * us},
			{kind: opBytes, value: int(80 * p.RPGByteReset)},
			{kind: opStop, wait: us},
			{kind: opStart, wait: us},
			{kind: opCNP, wait: p.RateReduceMonitorPeriod},
			{kind: opIdle, wait: p.RPGTimeReset},
			{kind: opIdle, wait: 100 * p.RPGTimeReset},
		})
	})
	// A re-point between two alpha grid points with the increase timer
	// armed, one back onto small intervals, and one in the middle of a
	// CNP storm whose cuts keep moving the timer's due.
	t.Run("repoint", func(t *testing.T) {
		p := DefaultParams()
		us := eventsim.Microsecond
		i := p.AlphaUpdateInterval
		newEagerPair(t, p).run([]rpOp{
			{kind: opCNP, wait: 3 * us},
			{kind: opCNP, wait: i / 3},
			// G 128/256, alpha_update_interval 31 µs, rpg_time_reset 128 µs.
			{kind: opRepoint, wait: i / 2, value: 127},
			{kind: opGridCNP},
			{kind: opCNP, wait: 5 * us},
			{kind: opIdle, wait: 300 * us},
			// G 6/256, alpha_update_interval 6 µs, rpg_time_reset 6 µs.
			{kind: opRepoint, wait: 7, value: 5},
			{kind: opCNP, wait: 13},
			{kind: opIdle, wait: 100 * i},
		})
		storm := stormScript(p, p.RateReduceMonitorPeriod+7, 50, 250)
		mid := len(storm) / 2
		// G 201/256, alpha_update_interval 7 µs, rpg_time_reset 201 µs.
		storm = append(storm[:mid:mid], append([]rpOp{{kind: opRepoint, value: 200}}, storm[mid:]...)...)
		newEagerPair(t, p).run(append(storm, rpOp{kind: opIdle, wait: 10 * p.RPGTimeReset}))
	})
	t.Run("randomized", func(t *testing.T) {
		p := DefaultParams()
		p.InitialAlpha = 0
		p.G = 0.5
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			newEagerPair(t, p).run(randomScript(rng, p, 40))
		}
	})
}

// TestRPFleetMatchesEagerReference is the shape of the benchmark's timer
// fleet: InitialAlpha 0, half the QPs cut by a CNP injector every
// 11 µs + 7 ns, half never cut. The injectors are engine events, so on the
// reference they share nanoseconds with alpha fires; QP 0's phase puts
// its sixth CNP exactly on the grid point 2·alpha_update_interval.
func TestRPFleetMatchesEagerReference(t *testing.T) {
	const (
		nRP         = 64
		injectEvery = 11*eventsim.Microsecond + 7
	)
	params := DefaultParams()
	params.InitialAlpha = 0
	pf := func() *Params { return &params }
	eng, rEng := eventsim.NewEngine(1), eventsim.NewEngine(1)
	rps, refs := make([]*RP, nRP), make([]*refRP, nRP)
	inject := func(e *eventsim.Engine, first eventsim.Time, cnp func()) {
		var fn eventsim.Handler
		var ev eventsim.EventID
		fn = func() {
			cnp()
			ev = e.RearmAfter(ev, injectEvery, fn)
		}
		ev = e.After(first, fn)
	}
	rng := rand.New(rand.NewSource(1))
	for j := range rps {
		rps[j], refs[j] = NewRP(eng, pf, 100e9), newRefRP(rEng, pf, 100e9)
		rps[j].Start()
		refs[j].Start()
	}
	for j := 0; j < nRP; j += 2 {
		first := 1 + eventsim.Time(rng.Int63n(int64(injectEvery)))
		if j == 0 {
			first = 2*params.AlphaUpdateInterval - 5*injectEvery
		}
		inject(eng, first, rps[j].OnCNP)
		inject(rEng, first, refs[j].OnCNP)
	}
	for ms := eventsim.Time(1); ms <= 3; ms++ {
		eng.RunUntil(ms * eventsim.Millisecond)
		rEng.RunUntil(ms * eventsim.Millisecond)
		for j := range rps {
			if got, want := snapRP(rps[j]), snapRef(refs[j]); got != want {
				t.Fatalf("QP %d at %v:\n  rp:  %+v\n  ref: %+v", j, eng.Now(), got, want)
			}
			if cut := j%2 == 0; cut != (rps[j].Cuts > 0) {
				t.Fatalf("QP %d: %d cuts", j, rps[j].Cuts)
			}
		}
	}
	if rps[1].Increases != 0 || refs[1].Increases == 0 {
		t.Fatalf("never-cut QP: %d increases, reference %d; want 0 and > 0", rps[1].Increases, refs[1].Increases)
	}
}

// FuzzRPMatchesEager decodes arbitrary bytes into RP scripts over the op
// alphabet of TestRPMatchesEagerReference: three bytes an op, the first
// picking the kind, the other two the wait (a << b%16 ns) and the value.
// The first byte of the input picks InitialAlpha 0 or 1 and clamp_tgt_rate.
func FuzzRPMatchesEager(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 10, 0, 2, 0, 0, 3, 200, 9, 7, 40, 4, 6, 0, 200, 0, 50, 12})
	f.Add([]byte{2, 6, 10, 8, 0, 255, 15, 2, 0, 0, 8, 9, 1, 0, 99, 3, 4, 1, 0, 5, 200, 3})
	seed := make([]byte, 97)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	storm := DefaultParams()
	storm.RPGTimeReset = 40 * eventsim.Microsecond
	f.Add(fuzzInput(0, append([]rpOp{{kind: opRetuneTimer, wait: 39, value: 39}},
		stormScript(storm, 253<<4, 10, 100)...)))
	// A re-point decodes its value from its wait bytes: 200 << 4 ns is
	// value 4<<8 | 200, so G 201/256, alpha_update_interval 61 µs,
	// rpg_time_reset 53 µs.
	us := eventsim.Microsecond
	f.Add(fuzzInput(1, []rpOp{
		{kind: opCNP, wait: 3 * us},
		{kind: opCNP, wait: 10 * us},
		{kind: opRepoint, wait: 200 << 4},
		{kind: opGridCNP},
		{kind: opCNP, wait: 20 * us},
		{kind: opIdle, wait: 2 * eventsim.Millisecond},
	}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		p := DefaultParams()
		p.InitialAlpha = float64(in[0] % 2)
		p.ClampTgtRate = in[0]&2 != 0
		in = in[1:]
		if len(in) > 300 {
			in = in[:300]
		}
		e := newEagerPair(t, p)
		for i := 0; len(in) >= 3; i, in = i+1, in[3:] {
			op := rpOp{kind: int(in[0]) % opKinds, wait: eventsim.Time(in[1]) << (in[2] % 16), value: int(in[2])<<8 | int(in[1])}
			if op.kind == opBytes {
				op.value %= int(2 * p.RPGByteReset)
			}
			e.apply(i, op)
		}
	})
}

// A quiescent QP schedules nothing: at Start, at line rate, it has no event
// pending; a cut arms the increase timer; the recovery back to line rate
// parks it again; Stop leaves nothing behind.
func TestRPSuppressionParksTimers(t *testing.T) {
	p := DefaultParams()
	p.InitialAlpha = 0
	eng := eventsim.NewEngine(1)
	rp := NewRP(eng, func() *Params { return &p }, 100e9)
	rp.Start()
	if got := eng.Pending(); got != 0 {
		t.Fatalf("quiescent RP armed %d events at Start, want 0", got)
	}
	eng.RunUntil(5 * eventsim.Microsecond)
	rp.OnCNP()
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d after a cut, want 1 (the increase timer)", got)
	}
	eng.RunUntil(eng.Now() + 200*p.RPGTimeReset)
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending = %d after recovering to line rate, want 0", got)
	}
	if rp.Rate() != 100e9 || !rp.Running() {
		t.Fatalf("parked RP: rate %g, running %v; want line rate, running", rp.Rate(), rp.Running())
	}
	rp.OnCNP()
	rp.Stop()
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", got)
	}
}

// Alpha keeps the grid it started on however long nothing reads it: after
// a CNP between two grid points, the next point (3i) only clears the CNP
// flag and the one after (4i) decays.
func TestRPSuppressionAlphaGridPhase(t *testing.T) {
	p := DefaultParams()
	p.InitialAlpha = 0
	i := p.AlphaUpdateInterval
	eng := eventsim.NewEngine(1)
	rp := NewRP(eng, func() *Params { return &p }, 100e9)
	rp.Start()
	eng.RunUntil(2*i + i/2)
	rp.OnCNP()
	if rp.Alpha() != p.G {
		t.Fatalf("alpha after CNP = %g, want G = %g", rp.Alpha(), p.G)
	}
	want := p.G * (1 - p.G)
	for _, c := range []struct {
		at    eventsim.Time
		alpha float64
	}{{3*i - 1, p.G}, {3 * i, p.G}, {4*i - 1, p.G}, {4 * i, want}, {5*i - 1, want}} {
		eng.RunUntil(c.at)
		if got := rp.Alpha(); got != c.alpha {
			t.Fatalf("alpha at %v = %g, want %g", c.at, got, c.alpha)
		}
	}
}
