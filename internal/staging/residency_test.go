package staging

import (
	"strings"
	"testing"
)

func mustResidency(t *testing.T, sizes []int64, capacity int64, policy Policy, pinned int) *Residency {
	t.Helper()
	r, err := NewResidency(sizes, capacity, policy, pinned)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": LRU, "lru": LRU, "fifo": FIFO, "pin": Pinned,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	// One spelling per policy: an alias would run the same policy under a
	// second cache key.
	for _, bad := range []string{"mru", "pinned"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "policy") {
			t.Fatalf("ParsePolicy(%q): err=%v", bad, err)
		}
	}
	if got := Policy(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown policy String() = %q", got)
	}
	for p, s := range map[Policy]string{LRU: "lru", FIFO: "fifo", Pinned: "pin"} {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

// TestNewResidencyErrors pins every constructor rejection: malformed slot
// tables, capacities below the largest slot, and pinned sets that leave no
// working slot.
func TestNewResidencyErrors(t *testing.T) {
	if _, err := NewResidency(nil, 0, LRU, 0); err == nil {
		t.Fatal("empty slot table accepted")
	}
	if _, err := NewResidency([]int64{10, 0, 5}, 0, LRU, 0); err == nil {
		t.Fatal("zero-size slot accepted")
	}
	if _, err := NewResidency([]int64{10, -3}, 0, LRU, 0); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := NewResidency([]int64{100, 40}, 50, LRU, 0); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity below largest slot: err=%v", err)
	}
	// Pinned set fits, but nothing is left for a working slot.
	if _, err := NewResidency([]int64{100, 40, 40}, 110, Pinned, 1); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("overpinned capacity: err=%v", err)
	}
}

// TestNewResidencyClamps: pinned counts are clamped to valid ranges and
// ignored outside the Pinned policy; oversized capacities collapse to the
// total.
func TestNewResidencyClamps(t *testing.T) {
	if r := mustResidency(t, []int64{10, 20}, 0, LRU, 5); r.Pins() != 0 {
		t.Fatalf("LRU kept %d pins", r.Pins())
	}
	if r := mustResidency(t, []int64{10, 20}, 1<<40, Pinned, -2); r.Pins() != 0 {
		t.Fatalf("negative pin request kept %d pins", r.Pins())
	}
	r := mustResidency(t, []int64{10, 20}, 1<<40, Pinned, 7)
	if r.Pins() != 2 || r.Capacity() != 30 {
		t.Fatalf("pins=%d capacity=%d, want 2/30", r.Pins(), r.Capacity())
	}
	// All slots pinned: everything resident from construction, no errors.
	if !r.Resident(0) || !r.Resident(1) || r.ResidentBytes() != 30 {
		t.Fatalf("pinned slots not wired down: %+v", r.Stats())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResidencyWarm: warming fills without miss/eviction accounting and
// refuses (rather than evicts) past capacity.
func TestResidencyWarm(t *testing.T) {
	r := mustResidency(t, []int64{10, 10, 10}, 20, LRU, 0)
	if !r.Warm(0) || !r.Warm(1) {
		t.Fatal("warm within capacity refused")
	}
	if !r.Warm(0) {
		t.Fatal("re-warming a resident slot refused")
	}
	if r.Warm(2) {
		t.Fatal("warm past capacity evicted")
	}
	if st := r.Stats(); st.DemandMisses != 0 || st.Evictions != 0 || st.LoadedBytes != 0 {
		t.Fatalf("warming counted as traffic: %+v", st)
	}
	if r.ResidentBytes() != 20 {
		t.Fatalf("resident %d, want 20", r.ResidentBytes())
	}
}

// TestResidencyLRUVsFIFO: the two policies part ways exactly when the
// eviction-ordering slot was re-used after load — LRU protects it, FIFO
// drops it anyway.
func TestResidencyLRUVsFIFO(t *testing.T) {
	run := func(policy Policy) *Residency {
		r := mustResidency(t, []int64{10, 10, 10}, 20, policy, 0)
		r.Use(0, 0) // load 0
		r.Use(1, 1) // load 1
		r.Use(0, 0) // re-use 0: newest by recency, oldest by load order
		r.Use(2, 2) // needs a victim
		return r
	}
	lru := run(LRU)
	if !lru.Resident(0) || lru.Resident(1) {
		t.Fatal("LRU evicted the recently used slot")
	}
	fifo := run(FIFO)
	if fifo.Resident(0) || !fifo.Resident(1) {
		t.Fatal("FIFO kept the oldest-loaded slot")
	}
	for _, r := range []*Residency{lru, fifo} {
		if st := r.Stats(); st.Evictions != 1 || st.EvictedBytes != 10 {
			t.Fatalf("eviction accounting: %+v", st)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResidencyPrefetchNeverEvictsExecutingOrPinned: a prefetch that could
// only make room by dropping the executing or a pinned slot is skipped and
// counted, and the later demand use still succeeds.
func TestResidencyPrefetchNeverEvictsExecutingOrPinned(t *testing.T) {
	r := mustResidency(t, []int64{10, 10, 10}, 20, Pinned, 1)
	// Slot 0 pinned; slot 1 resident and executing: no victim exists.
	if miss, _ := r.Use(1, 1); !miss {
		t.Fatal("first use of slot 1 should miss")
	}
	if r.Prefetch(2, 1) {
		t.Fatal("prefetch evicted the executing or pinned slot")
	}
	if st := r.Stats(); st.PrefetchSkipped != 1 || st.PrefetchIssued != 0 {
		t.Fatalf("skip accounting: %+v", st)
	}
	// Prefetch of an already-resident slot is a no-op, not a fetch.
	if r.Prefetch(1, 1) {
		t.Fatal("prefetch re-fetched a resident slot")
	}
	// Once slot 2 executes, the demand fetch may evict slot 1 — but never
	// the pinned slot 0.
	if miss, evicted := r.Use(2, 2); !miss || evicted != 10 {
		t.Fatalf("demand fetch after skip: miss=%v evicted=%d", miss, evicted)
	}
	if !r.Resident(0) || r.Resident(1) {
		t.Fatal("demand fetch chose the pinned slot as victim")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResidencyPrefetchHitAccounting: a prefetched slot's first demand use
// counts as a prefetch hit exactly once.
func TestResidencyPrefetchHitAccounting(t *testing.T) {
	r := mustResidency(t, []int64{10, 10}, 20, LRU, 0)
	if !r.Prefetch(1, 0) {
		t.Fatal("prefetch with free capacity refused")
	}
	if miss, _ := r.Use(1, 1); miss {
		t.Fatal("prefetched slot missed")
	}
	r.Use(1, 1)
	st := r.Stats()
	if st.PrefetchHits != 1 || st.Hits != 2 || st.PrefetchIssued != 1 {
		t.Fatalf("prefetch-hit accounting: %+v", st)
	}
	if got := r.Heat(); got[1] != 2 || got[0] != 0 {
		t.Fatalf("heat map: %v", got)
	}
	if r.Slots() != 2 {
		t.Fatalf("slots = %d", r.Slots())
	}
}

// TestResidencyCheckInvariantsCatchesCorruption: each invariant fires on a
// hand-corrupted tracker (same package, so the private state is reachable).
func TestResidencyCheckInvariantsCatchesCorruption(t *testing.T) {
	fresh := func() *Residency { return mustResidency(t, []int64{10, 10}, 20, Pinned, 1) }

	r := fresh()
	r.used += 5 // byte account drifts from the resident set
	if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "resident bytes") {
		t.Fatalf("byte-account drift undetected: %v", err)
	}

	r = fresh()
	r.resident[1] = true // layer appears without its bytes
	if err := r.CheckInvariants(); err == nil {
		t.Fatal("phantom resident slot undetected")
	}

	r = fresh()
	r.prefetched[1] = true // prefetched flag on a non-resident slot
	if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "prefetched") {
		t.Fatalf("dangling prefetch flag undetected: %v", err)
	}

	r = fresh()
	r.resident[0] = false
	r.used -= r.sizes[0] // pinned slot evicted
	if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("evicted pinned slot undetected: %v", err)
	}

	r = fresh()
	r.capacity = 5 // capacity shrinks under the resident bytes
	if err := r.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("capacity overflow undetected: %v", err)
	}
}
