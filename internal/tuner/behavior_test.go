package tuner

import (
	"math"
	"testing"

	"repro/internal/dcqcn"
	"repro/internal/loop"
)

// quickConfig compresses every strategy's session to tens of iterations
// so the table-driven contract tests run in milliseconds.
func quickConfig() Config {
	return Config{
		Weights:  DefaultWeights(),
		Base:     dcqcn.DefaultParams(),
		SA:       quickSA(),
		Bandit:   BanditConfig{Budget: 20},
		MultiECN: MultiECNConfig{Agents: 3, Budget: 20},
	}
}

func quickTPConfig() Config {
	c := quickConfig()
	c.Weights = Weights{TP: 1}
	return c
}

func mustNew(t *testing.T, name string, cfg Config, seed int64) Tuner {
	t.Helper()
	tu, err := New(name, cfg, seed)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return tu
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"bandit", "multiecn", "sa"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
		if tu, err := New(w, quickConfig(), 1); err != nil || tu.Name() != w {
			t.Errorf("New(%q) = (%v, %v), want a %q tuner", w, tu, err, w)
		}
	}
	if tu, err := New("", quickConfig(), 1); err != nil || tu.Name() != "sa" {
		t.Errorf(`New("") = (%v, %v), want the "sa" default`, tu, err)
	}
	if _, err := New("nope", quickConfig(), 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// The contract every strategy must honor, table-driven over Names.

func TestAllTunersIdleUntilTriggered(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 1)
		if tu.Active() {
			t.Errorf("%s: new tuner active", name)
		}
		if _, ok := tu.Step(loop.RuntimeSample{}, elephantFSD()); ok {
			t.Errorf("%s: idle tuner produced params", name)
		}
	}
}

// TestAllTunersWarmupDiscardsFirstSample verifies the ramp-bias guard on
// every strategy: the first post-trigger Step must re-dispatch the
// incumbent and ignore its sample, so a lucky idle-ish measurement
// cannot become the unbeatable "best".
func TestAllTunersWarmupDiscardsFirstSample(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickTPConfig(), 5)
		tu.Trigger(elephantFSD())
		// A deceptively perfect first sample (idle network).
		p, ok := tu.Step(loop.RuntimeSample{OTP: 1}, elephantFSD())
		if !ok {
			t.Fatalf("%s: warmup step refused", name)
		}
		if p != dcqcn.DefaultParams() {
			t.Errorf("%s: warmup step did not re-dispatch the incumbent", name)
		}
		// Seed with a realistic sample; the best must reflect it, not the
		// warmup's perfect reading.
		tu.Step(loop.RuntimeSample{OTP: 0.4}, elephantFSD())
		if tu.BestUtility() != 40 {
			t.Errorf("%s: seed utility %g, want 40 (warmup sample leaked)", name, tu.BestUtility())
		}
	}
}

// TestAllTunersTriggerResetsSession documents the one-session rule at
// tuner level: Trigger during an active session resets it (which is why
// the System gates triggers on !Active()), without resetting lifetime
// counters.
func TestAllTunersTriggerResetsSession(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 1)
		tu.Trigger(elephantFSD())
		sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.5, OPFC: 1}
		for i := 0; i < 3; i++ {
			tu.Step(sample, elephantFSD())
		}
		stepsBefore := tu.Stats().Steps
		tu.Trigger(miceFSD())
		if !math.IsInf(tu.BestUtility(), -1) {
			t.Errorf("%s: re-trigger did not reset the best utility", name)
		}
		if !tu.Active() {
			t.Errorf("%s: tuner inactive after re-trigger", name)
		}
		if tu.Stats().Steps != stepsBefore {
			t.Errorf("%s: Steps counter reset unexpectedly", name)
		}
	}
}

// TestAllTunersStepCountAdvancesOnlyOnStep pins the OFF-gap rule's tuner
// half: a Step-less interval leaves the state untouched.
func TestAllTunersStepCountAdvancesOnlyOnStep(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 1)
		tu.Trigger(elephantFSD())
		before := tu.Stats().Steps
		// (No Step call — the System simply does not call Step on idle
		// intervals.)
		if tu.Stats().Steps != before {
			t.Errorf("%s: steps advanced without Step", name)
		}
		tu.Step(loop.RuntimeSample{}, elephantFSD())
		if tu.Stats().Steps != before+1 {
			t.Errorf("%s: Step did not advance the counter", name)
		}
	}
}

// TestAllTunersSessionTerminates runs each strategy's session to
// completion: it must deactivate within a bounded number of steps, settle
// on a valid vector, return that vector from the final Step, and count
// one session and at least one proposal.
func TestAllTunersSessionTerminates(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 1)
		tu.Trigger(elephantFSD())
		sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.5, OPFC: 1}
		var last dcqcn.Params
		steps := 0
		for tu.Active() {
			p, ok := tu.Step(sample, elephantFSD())
			if !ok {
				t.Fatalf("%s: active tuner refused to step", name)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: dispatched invalid params at step %d: %v", name, steps, err)
			}
			last = p
			steps++
			if steps > 5000 {
				t.Fatalf("%s: session never terminated", name)
			}
		}
		best := tu.Best()
		if err := best.Validate(); err != nil {
			t.Errorf("%s: settled params invalid: %v", name, err)
		}
		if last != best {
			t.Errorf("%s: final dispatch is not the best setting", name)
		}
		st := tu.Stats()
		if st.Sessions != 1 {
			t.Errorf("%s: Sessions = %d, want 1", name, st.Sessions)
		}
		if st.Proposals == 0 {
			t.Errorf("%s: no proposals counted", name)
		}
		if st.Steps != steps {
			t.Errorf("%s: Steps = %d, drove %d", name, st.Steps, steps)
		}
	}
}

// TestAllTunersAbort cancels mid-session: the tuner must deactivate,
// count the abort, and not count a completed session.
func TestAllTunersAbort(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 1)
		tu.Trigger(elephantFSD())
		sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.5, OPFC: 1}
		for i := 0; i < 3; i++ {
			tu.Step(sample, elephantFSD())
		}
		tu.Abort()
		if tu.Active() {
			t.Errorf("%s: active after Abort", name)
		}
		st := tu.Stats()
		if st.Aborts != 1 || st.Sessions != 0 {
			t.Errorf("%s: Aborts=%d Sessions=%d after mid-session abort", name, st.Aborts, st.Sessions)
		}
		// Abort on an idle tuner is a no-op.
		tu.Abort()
		if tu.Stats().Aborts != 1 {
			t.Errorf("%s: idle Abort counted", name)
		}
	}
}

// TestMultiECNPerSwitchCapability exercises the PerSwitch surface: local
// reports steer agents independently, proposals align with agents, and
// commits are tallied per agent.
func TestMultiECNPerSwitchCapability(t *testing.T) {
	tu := mustNew(t, "multiecn", quickConfig(), 1)
	ps, ok := tu.(PerSwitch)
	if !ok {
		t.Fatal("multiecn does not implement PerSwitch")
	}
	m := tu.(*MultiECN)
	tu.Trigger(elephantFSD())
	sample := loop.RuntimeSample{OTP: 0.5, ORTT: 0.5, OPFC: 1}
	var elephant, mice loop.Report
	elephant.Hist[12] = 1000
	elephant.ElephantBytes, elephant.MiceBytes = 900, 100
	elephant.ElephantFlowsW, elephant.MiceFlowsW = 9, 1
	mice.Hist[0] = 1000
	mice.ElephantBytes, mice.MiceBytes = 100, 900
	mice.ElephantFlowsW, mice.MiceFlowsW = 1, 29
	for tu.Active() {
		ps.ObserveLocals([]loop.Report{elephant, mice, elephant})
		tu.Step(sample, elephantFSD())
		for _, pr := range ps.LocalProposals() {
			if pr.KminBytes >= pr.KmaxBytes {
				t.Fatalf("agent %d proposed Kmin %d >= Kmax %d", pr.Agent, pr.KminBytes, pr.KmaxBytes)
			}
			ps.AgentCommitted(pr.Agent)
		}
	}
	if got := len(ps.LocalProposals()); got != 3 {
		t.Errorf("LocalProposals has %d entries, want 3 (one per agent)", got)
	}
	counts := m.AgentCommitCounts()
	for i, c := range counts {
		if c == 0 {
			t.Errorf("agent %d never committed", i)
		}
	}
	if tu.Stats().AgentCommits == 0 {
		t.Error("AgentCommits stat not tallied")
	}
	// Out-of-range confirmations are ignored, not panics.
	ps.AgentCommitted(-1)
	ps.AgentCommitted(99)
}

// TestBanditRegretAccounting: regret accumulates only when a measured
// reward falls short of the best seen.
func TestBanditRegretAccounting(t *testing.T) {
	tu := mustNew(t, "bandit", quickTPConfig(), 1)
	b := tu.(*Bandit)
	tu.Trigger(elephantFSD())
	// Warmup + seed at 0.8, then alternate worse rewards.
	tu.Step(loop.RuntimeSample{OTP: 0.8}, elephantFSD())
	tu.Step(loop.RuntimeSample{OTP: 0.8}, elephantFSD())
	if b.Regret() != 0 {
		t.Fatalf("regret %g before any shortfall", b.Regret())
	}
	tu.Step(loop.RuntimeSample{OTP: 0.5}, elephantFSD())
	if b.Regret() <= 0 {
		t.Error("shortfall vs best-seen did not accumulate regret")
	}
}

// TestAllTunersOpenOnTheLiveVector: a session's warmup interval holds
// the vector the fabric runs, which Commit records. After a settled
// session that is the settled vector; after a rollback (the loop
// commits the restored vector and aborts) it is the restored one, not
// a point of the aborted chain.
func TestAllTunersOpenOnTheLiveVector(t *testing.T) {
	for _, name := range Names() {
		tu := mustNew(t, name, quickConfig(), 42)
		tu.Trigger(elephantFSD())
		var settled dcqcn.Params
		for i := 0; tu.Active(); i++ {
			settled = scriptStep(t, tu, i, 0)
			tu.Commit(settled)
		}
		tu.Trigger(elephantFSD())
		if p := scriptStep(t, tu, 0, 0); p != settled {
			t.Errorf("%s: session after a settle opened on %+v, want the settled %+v", name, p, settled)
		}
		for i := 1; i < 6; i++ {
			tu.Commit(scriptStep(t, tu, i, 0))
		}
		restored := dcqcn.ExpertParams()
		tu.Commit(restored)
		tu.Abort()
		tu.Trigger(elephantFSD())
		if p := scriptStep(t, tu, 0, 0); p != restored {
			t.Errorf("%s: session after a rollback opened on %+v, want the restored %+v", name, p, restored)
		}
	}
}
