package cache

import (
	"testing"

	"teco/internal/mem"
)

// The tiering plane (core.RunTiered) demotes a slot by streaming its bytes
// fast→far on the writeback link — which is the MESI story told at slot
// granularity: a slot leaving the coherent fast tier flushes every line a
// peer cache holds of it, dirty lines as writebacks, clean ones as silent
// drops. These tests pin that correspondence so the coherence model and
// the tiering cost model cannot drift apart.

// TestTierGeometriesLineExact: the modeled CPU cache tier (the gem5
// last-level cache) is an exact multiple of the line size the migration
// streams move — mem.LinesIn of its capacity is its line count, with no
// partial-line remainder for a migration to lose.
func TestTierGeometriesLineExact(t *testing.T) {
	cfg := Gem5L3()
	if got, want := New(cfg).Lines(), int64(mem.LinesIn(cfg.SizeBytes)); got != want {
		t.Errorf("%s: %d lines, but LinesIn(%d) = %d", cfg.Name, got, cfg.SizeBytes, want)
	}
	if cfg.SizeBytes%mem.LineSize != 0 {
		t.Errorf("%s: capacity %d not line-exact", cfg.Name, cfg.SizeBytes)
	}
}

// TestSlotDemotionFlushSemantics: flushing a cache that holds a slot's
// lines writes back exactly the dirty lines and drops the clean ones —
// the per-line ground truth behind the tiering plane's demotion
// accounting (a demoted slot's bytes leave on the writeback stream once,
// never twice, and never silently).
func TestSlotDemotionFlushSemantics(t *testing.T) {
	c := New(Config{Name: "peer", SizeBytes: 1 << 10, Ways: 4})
	// A 4-line "slot": two lines written (Modified), two only read.
	for a := mem.LineAddr(0); a < 4; a++ {
		c.Access(a, a%2 == 0)
	}
	evs := c.FlushAll()
	if len(evs) != 4 {
		t.Fatalf("flush returned %d lines, want 4", len(evs))
	}
	var dirty int
	for _, ev := range evs {
		if ev.Dirty {
			dirty++
		}
	}
	if dirty != 2 {
		t.Fatalf("%d dirty lines flushed, want the 2 written ones", dirty)
	}
	if c.ValidLines() != 0 {
		t.Fatalf("%d lines survived the flush", c.ValidLines())
	}
	_, _, _, wbs := c.Stats()
	if wbs != 2 {
		t.Fatalf("writeback counter %d, want 2", wbs)
	}
	// A second flush moves nothing: demotion streams a slot's bytes once.
	if again := c.FlushAll(); len(again) != 0 {
		t.Fatalf("double flush re-evicted %d lines", len(again))
	}
}
