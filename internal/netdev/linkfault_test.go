package netdev

import (
	"testing"

	"repro/internal/eventsim"
)

func TestPortLinkDownHoldsThenResumes(t *testing.T) {
	// 1 Gbps, 1 µs propagation: one 1250 B packet takes 10 µs + 1 µs.
	eng, p, dst := newPort(t, 1e9, eventsim.Microsecond)

	p.SetLinkUp(false)
	if p.LinkUp() {
		t.Fatal("LinkUp after SetLinkUp(false)")
	}
	p.Enqueue(&Packet{Kind: KindData, Class: ClassData, WireBytes: 1250}, -1)
	eng.RunUntil(50 * eventsim.Microsecond)
	if len(dst.pkts) != 0 {
		t.Fatalf("delivered %d packets across a down link", len(dst.pkts))
	}
	if p.QueueBytes(ClassData) == 0 {
		t.Error("down link dropped instead of holding")
	}

	p.SetLinkUp(true)
	eng.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets after link restore, want 1", len(dst.pkts))
	}
	if p.Stats.LinkDowns != 1 {
		t.Errorf("LinkDowns=%d, want 1", p.Stats.LinkDowns)
	}
}

func TestPortLinkDownStillSendsPFC(t *testing.T) {
	// PFC control frames must cross a "down" link: the outage model holds
	// data, but losing a RESUME would deadlock the upstream queue forever.
	eng, p, dst := newPort(t, 1e9, eventsim.Microsecond)
	p.SetLinkUp(false)
	p.SendPFC(true, ClassData)
	eng.Run()
	if len(dst.pkts) != 1 || dst.pkts[0].Kind != KindPFC {
		t.Fatalf("PFC frame did not cross the down link (got %d pkts)", len(dst.pkts))
	}
}
