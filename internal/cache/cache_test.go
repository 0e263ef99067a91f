package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"teco/internal/mem"
)

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	if !Modified.Valid() || Invalid.Valid() {
		t.Fatal("Valid() wrong")
	}
}

func TestGem5Geometries(t *testing.T) {
	// Table II: L3 16MB/64B/64-way.
	c := New(Gem5L3())
	if lines := int64(len(c.sets)) * int64(c.ways); lines*mem.LineSize != Gem5L3().SizeBytes || lines != 1<<18 {
		t.Fatalf("L3 holds %d lines, want 262144", lines)
	}
}

func TestInsertAndLookup(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, Ways: 4}) // 16 lines, 4 sets
	if c.Contains(5) {
		t.Fatal("empty cache should not contain")
	}
	if ev, evicted := c.Insert(5, Exclusive); evicted {
		t.Fatalf("unexpected eviction %+v", ev)
	}
	if c.Lookup(5) != Exclusive {
		t.Fatalf("state = %v", c.Lookup(5))
	}
	// Upgrade in place.
	c.Insert(5, Modified)
	if c.Lookup(5) != Modified {
		t.Fatal("in-place state update failed")
	}
	if c.where.Len() != 1 {
		t.Fatalf("valid = %d", c.where.Len())
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{SizeBytes: 1024, Ways: 4}).Insert(1, Invalid)
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: addresses that map to set 0 in a 2-line cache.
	c := New(Config{Name: "tiny", SizeBytes: 128, Ways: 2})
	c.Insert(0, Modified)
	c.Insert(1, Exclusive)
	c.Touch(0) // 0 most recently used; 1 is LRU
	ev, evicted := c.Insert(2, Exclusive)
	if !evicted || ev.Addr != 1 || ev.Dirty {
		t.Fatalf("eviction = %+v %v, want clean victim line 1", ev, evicted)
	}
	// Now 0 is LRU and dirty.
	ev, evicted = c.Insert(3, Exclusive)
	if !evicted || ev.Addr != 0 || !ev.Dirty {
		t.Fatalf("eviction = %+v %v, want dirty victim line 0", ev, evicted)
	}
	evs, wbs := c.evictions, c.writebacks
	if evs != 2 || wbs != 1 {
		t.Fatalf("evictions=%d writebacks=%d", evs, wbs)
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 4})
	c.Insert(7, Modified)
	if !c.SetState(7, Shared) {
		t.Fatal("SetState on present line failed")
	}
	if c.Lookup(7) != Shared {
		t.Fatal("state not updated")
	}
	if !c.SetState(7, Invalid) {
		t.Fatal("invalidate failed")
	}
	if c.Contains(7) {
		t.Fatal("line still present after invalidate")
	}
	if c.SetState(7, Modified) {
		t.Fatal("SetState on absent line should return false")
	}
	// Silent invalidation is not an eviction.
	evs := c.evictions
	if evs != 0 {
		t.Fatalf("evictions = %d, want 0", evs)
	}
}

func TestAccessHitMissCounting(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 4})
	hit, _, _ := c.Access(1, false)
	if hit {
		t.Fatal("first access should miss")
	}
	hit, _, _ = c.Access(1, true)
	if !hit {
		t.Fatal("second access should hit")
	}
	if c.Lookup(1) != Modified {
		t.Fatal("write hit should dirty the line")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.misses)
	}
}

func TestFlushAll(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 4})
	c.Insert(1, Modified)
	c.Insert(2, Exclusive)
	c.Insert(3, Modified)
	c.Insert(4, Shared)
	evs := c.FlushAll()
	if len(evs) != 4 {
		t.Fatalf("flush returned %d lines, want all 4", len(evs))
	}
	dirty := 0
	for _, e := range evs {
		if e.Dirty {
			dirty++
		}
	}
	if dirty != 2 {
		t.Fatalf("flush marked %d dirty, want 2", dirty)
	}
	if c.where.Len() != 0 {
		t.Fatal("cache not empty after flush")
	}
}

func TestFullyAssociative(t *testing.T) {
	c := New(Config{SizeBytes: 256, Ways: 0}) // 4 lines, fully associative
	for i := mem.LineAddr(0); i < 4; i++ {
		if _, evicted := c.Insert(i*1000, Exclusive); evicted {
			t.Fatal("no eviction expected while filling")
		}
	}
	_, evicted := c.Insert(9999, Exclusive)
	if !evicted {
		t.Fatal("full cache must evict")
	}
}

// Property: the cache never holds more valid lines than its capacity, and
// a line reported present by Contains is always found with a valid state.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 2048, Ways: 4}) // 32 lines
		for _, op := range ops {
			a := mem.LineAddr(op % 257)
			c.Access(a, op%3 == 0)
			if c.where.Len() > 32 {
				return false
			}
			if c.Contains(a) != c.Lookup(a).Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: inclusion of dirty data — a Modified line either stays in the
// cache or leaves via a dirty eviction / flush; it is never silently lost.
func TestNoSilentDirtyLossProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New(Config{SizeBytes: 512, Ways: 2}) // 8 lines
	dirty := map[mem.LineAddr]bool{}
	for i := 0; i < 5000; i++ {
		a := mem.LineAddr(rng.Intn(64))
		write := rng.Intn(2) == 0
		_, ev, evicted := c.Access(a, write)
		if write {
			dirty[a] = true
		}
		if evicted {
			if dirty[ev.Addr] && !ev.Dirty {
				t.Fatalf("dirty line %d silently dropped", ev.Addr)
			}
			delete(dirty, ev.Addr)
		}
	}
	// Everything still marked dirty must be in the cache in Modified state.
	for a := range dirty {
		if c.Lookup(a) != Modified {
			t.Fatalf("line %d should be resident Modified", a)
		}
	}
	// And the final flush must surface each of them exactly once.
	evs := c.FlushAll()
	seen := map[mem.LineAddr]bool{}
	for _, e := range evs {
		if seen[e.Addr] {
			t.Fatalf("line %d flushed twice", e.Addr)
		}
		seen[e.Addr] = true
		if e.Dirty != dirty[e.Addr] {
			t.Fatalf("line %d dirty=%v, tracker says %v", e.Addr, e.Dirty, dirty[e.Addr])
		}
		delete(dirty, e.Addr)
	}
	if len(dirty) != 0 {
		t.Fatalf("%d dirty lines missing from flush", len(dirty))
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []struct {
		cfg  Config
		want string
	}{
		{Config{SizeBytes: 0, Ways: 4}, "not a positive whole number of 64-byte lines"},
		{Config{SizeBytes: 100, Ways: 1}, "not a positive whole number of 64-byte lines"},
		// 100 B is a partial line before it is 1 line in 3 ways.
		{Config{SizeBytes: 100, Ways: 3}, "not a positive whole number of 64-byte lines"},
		{Config{SizeBytes: 192, Ways: 2}, "3 lines not divisible by 2 ways"},
		{Config{SizeBytes: 384, Ways: 2}, "3 sets is not a power of two"},
		{Config{SizeBytes: 192, Ways: 1}, "3 sets is not a power of two"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, bad.want) {
					t.Errorf("config %+v: panic %q, want one naming %q", bad.cfg, msg, bad.want)
				}
			}()
			New(bad.cfg)
		}()
	}
}

// TestStorageFollowsLinesHeld pins the storage half of the tag contract:
// the address index holds one page per 4096-line range holding a line and
// releases it when the range's last line leaves, by invalidation, eviction
// or flush; a set's ways grow to less than twice the most lines it held.
func TestStorageFollowsLinesHeld(t *testing.T) {
	c := New(Gem5L3()) // 4096 sets of 64 ways
	const ranges, perRange = 8, 3
	rangeBase := func(r int) mem.LineAddr { return mem.LineAddr(r) << 20 } // set 0 of its range
	for r := 0; r < ranges; r++ {
		for i := 0; i < perRange; i++ {
			c.Insert(rangeBase(r)+mem.LineAddr(i), Modified)
		}
	}
	if got := c.where.Pages(); got != ranges {
		t.Fatalf("%d lines in %d ranges hold %d index pages", c.where.Len(), ranges, got)
	}
	for i := 0; i < perRange; i++ {
		c.SetState(rangeBase(0)+mem.LineAddr(i), Invalid)
	}
	if got := c.where.Pages(); got != ranges-1 {
		t.Fatalf("an emptied range kept its page: %d pages, want %d", got, ranges-1)
	}
	// Fill set 0 with lines 4096 apart, one range each, until it turns over.
	for i := 0; i < int(c.ways); i++ {
		c.Insert(rangeBase(ranges)+mem.LineAddr(i*len(c.sets)), Exclusive)
	}
	if got, want := c.where.Pages(), ranges-1+int(c.ways); got != want {
		t.Fatalf("%d pages after set 0 turned over, want %d", got, want)
	}
	for si, most := range map[int]int{0: int(c.ways), 1: ranges, 2: ranges, 3: 0} {
		if n := cap(c.sets[si].ways); n > max(0, 2*most-1) {
			t.Errorf("set %d has room for %d ways after holding at most %d", si, n, most)
		}
	}
	c.FlushAll()
	if c.where.Len() != 0 || c.where.Pages() != 0 {
		t.Fatalf("flush left %d lines in %d pages", c.where.Len(), c.where.Pages())
	}

	// An eviction releases the victim's page.
	c = New(Config{Name: "two", SizeBytes: 2 * mem.LineSize})
	c.Insert(0, Modified)
	c.Insert(5000, Modified)
	if ev, _ := c.Insert(9000, Modified); ev.Addr != 0 || c.where.Pages() != 2 {
		t.Fatalf("evicting line %d left %d pages, want 2", ev.Addr, c.where.Pages())
	}
}
