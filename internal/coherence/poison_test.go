package coherence

import (
	"testing"

	"teco/internal/cache"
	"teco/internal/mem"
)

func poisonDomain(t *testing.T) (*Domain, mem.LineAddr, *[]Transfer) {
	t.Helper()
	amap := mem.NewMap()
	region := amap.Allocate("p", mem.RegionGiantCache, 1<<20)
	var log []Transfer
	d := NewDomain(Config{
		Mode:       Update,
		AddrMap:    amap,
		OnTransfer: func(tr Transfer) { log = append(log, tr) },
	})
	l := region.Base.Line()
	d.Seed(l, Accelerator)
	return d, l, &log
}

// TestPoisonPushFallsBackToOnDemandFetch: a poisoned FlushData push must
// not leave the consumer with a poisoned copy; the writer reverts to
// Modified and the consumer's next read takes the on-demand fetch path.
func TestPoisonPushFallsBackToOnDemandFetch(t *testing.T) {
	d, l, log := poisonDomain(t)

	d.Write(l, CPU) // update push CPU -> accelerator
	d.PoisonPush(l, CPU)

	if got := d.cpu.Lookup(l); got != cache.Modified {
		t.Fatalf("writer state after poison = %v, want Modified", got)
	}
	if d.giant.Contains(l) {
		t.Fatal("peer kept a poisoned copy")
	}
	if d.poisonedLines.Len() != 1 {
		t.Fatalf("poisoned lines = %d, want 1", d.poisonedLines.Len())
	}
	if err := d.CheckInvariants([]mem.LineAddr{l}); err != nil {
		t.Fatalf("invariants violated after poison: %v", err)
	}

	// Consumer read recovers on demand.
	before := len(*log)
	if !d.Read(l, Accelerator) {
		t.Fatal("post-poison read was not an on-demand fetch")
	}
	if tr := (*log)[before]; tr.Msg != MsgData || !tr.OnDemand || tr.From != CPU {
		t.Fatalf("recovery transfer = %+v, want on-demand MsgData from CPU", tr)
	}
	re, po, rec := d.FaultCounters()
	if re != 0 || po != 1 || rec != 1 {
		t.Fatalf("fault counters = (%d,%d,%d), want (0,1,1)", re, po, rec)
	}
	if d.poisonedLines.Len() != 0 {
		t.Fatal("recovered line still marked poisoned")
	}
	if err := d.CheckInvariants([]mem.LineAddr{l}); err != nil {
		t.Fatalf("invariants violated after recovery: %v", err)
	}
}

// TestRepushClearsPoison: a successful re-push of the same line supersedes
// the poisoned delivery without an on-demand fetch.
func TestRepushClearsPoison(t *testing.T) {
	d, l, _ := poisonDomain(t)
	d.Write(l, CPU)
	d.PoisonPush(l, CPU)
	d.Write(l, CPU) // retransmitted update push succeeds this time
	if d.poisonedLines.Len() != 0 {
		t.Fatal("successful re-push left the line marked poisoned")
	}
	if d.Read(l, Accelerator) {
		t.Fatal("read after clean re-push should hit the pushed copy")
	}
}

// TestNoteRetransmitIsStatsOnly: retransmits accumulate without touching
// protocol state.
func TestNoteRetransmitIsStatsOnly(t *testing.T) {
	d, l, _ := poisonDomain(t)
	d.Write(l, CPU)
	cpuState := d.cpu.Lookup(l)
	d.NoteRetransmit(3)
	d.NoteRetransmit(2)
	re, po, rec := d.FaultCounters()
	if re != 5 || po != 0 || rec != 0 {
		t.Fatalf("fault counters = (%d,%d,%d), want (5,0,0)", re, po, rec)
	}
	if d.cpu.Lookup(l) != cpuState {
		t.Fatal("NoteRetransmit changed protocol state")
	}
}
