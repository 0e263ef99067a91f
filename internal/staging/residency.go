// Package staging tracks per-layer fast-tier residency — the policy half
// of the offload scheduler. A Residency models a capacity-bounded fast tier
// (the giant cache) holding a subset of the model's layer-granular slots;
// the layer walk of the timing engine (core.StepLayered) and the tiering
// controller (tiering.Controller, under core.RunTiered) share this one
// implementation, so "which slot is resident when" has a single
// definition. Policies are 10Cache-style placement rules: plain LRU, FIFO,
// and pinned-hot-layers (the first K slots are never evicted).
package staging

import (
	"fmt"
)

// Policy selects the eviction discipline.
type Policy int

const (
	// LRU evicts the least-recently-used resident slot.
	LRU Policy = iota
	// FIFO evicts the resident slot loaded longest ago, regardless of use.
	FIFO
	// Pinned is LRU with the first Pinned slots exempt from eviction (the
	// "pinned hot layers" policy: embeddings and early layers are touched
	// by every step's forward AND backward tail, so wiring them down
	// removes their refetches entirely).
	Pinned
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Pinned:
		return "pin"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the flag spelling to a Policy; "" is LRU.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "pin", "pinned":
		return Pinned, nil
	default:
		return 0, fmt.Errorf("staging: unknown eviction policy %q (want lru, fifo or pin)", s)
	}
}

// ResidencyStats counts scheduler activity since construction.
type ResidencyStats struct {
	// Hits counts demand uses that found the slot resident; PrefetchHits
	// is the subset whose residency came from a prefetch not yet used.
	Hits         int64
	PrefetchHits int64
	// DemandMisses counts uses that had to fetch on the critical path.
	DemandMisses int64
	// PrefetchIssued counts prefetch fetches started; PrefetchSkipped
	// counts prefetches declined because no victim could be evicted
	// (everything resident was pinned or executing).
	PrefetchIssued  int64
	PrefetchSkipped int64
	// Evictions counts slots dropped to make room; LoadedBytes and
	// EvictedBytes are the byte volumes fetched and dropped.
	Evictions    int64
	LoadedBytes  int64
	EvictedBytes int64
}

// Residency tracks which of a fixed set of slots is resident in a
// capacity-bounded fast tier. Not safe for concurrent use; each scheduler
// owns one.
type Residency struct {
	sizes    []int64
	capacity int64
	policy   Policy
	pinned   int

	resident []bool
	// prefetched marks resident slots loaded by prefetch and not yet used.
	prefetched []bool
	lastUse    []int64 // recency tick per slot (LRU / Pinned victim order)
	loadSeq    []int64 // load tick per slot (FIFO victim order)
	used       int64
	tick       int64
	loads      int64

	heat  []int64 // demand uses per slot, the /statz heat map
	stats ResidencyStats
}

// NewResidency builds a tracker for len(sizes) slots under the given byte
// capacity. capacity <= 0 means unbounded (every slot fits — the
// all-resident baseline). A bounded capacity must hold the largest single
// slot (the executing layer always needs somewhere to live) and, under the
// Pinned policy, all pinned slots plus the largest unpinned one.
func NewResidency(sizes []int64, capacity int64, policy Policy, pinned int) (*Residency, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("staging: residency needs at least one slot")
	}
	var total, maxSlot int64
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("staging: slot %d has size %d", i, s)
		}
		total += s
		if s > maxSlot {
			maxSlot = s
		}
	}
	if capacity <= 0 || capacity > total {
		capacity = total
	}
	if policy != Pinned {
		pinned = 0
	}
	if pinned < 0 {
		pinned = 0
	}
	if pinned > len(sizes) {
		pinned = len(sizes)
	}
	if capacity < maxSlot {
		return nil, fmt.Errorf("staging: capacity %d below largest slot %d", capacity, maxSlot)
	}
	var pinnedBytes int64
	for i := 0; i < pinned; i++ {
		pinnedBytes += sizes[i]
	}
	if pinned < len(sizes) {
		// Room for the pinned set plus at least one victim slot, otherwise
		// the unpinned layers could never be loaded at all.
		var maxUnpinned int64
		for i := pinned; i < len(sizes); i++ {
			if sizes[i] > maxUnpinned {
				maxUnpinned = sizes[i]
			}
		}
		if pinnedBytes+maxUnpinned > capacity {
			return nil, fmt.Errorf("staging: capacity %d cannot hold %d pinned bytes plus a working slot", capacity, pinnedBytes)
		}
	}
	r := &Residency{
		sizes:      append([]int64(nil), sizes...),
		capacity:   capacity,
		policy:     policy,
		pinned:     pinned,
		resident:   make([]bool, len(sizes)),
		prefetched: make([]bool, len(sizes)),
		lastUse:    make([]int64, len(sizes)),
		loadSeq:    make([]int64, len(sizes)),
		heat:       make([]int64, len(sizes)),
	}
	// Pinned slots are wired down from the start (their load is part of
	// run setup, not any step's critical path).
	for i := 0; i < pinned; i++ {
		r.insert(i)
	}
	return r, nil
}

// Slots returns the slot count.
func (r *Residency) Slots() int { return len(r.sizes) }

// Capacity returns the effective byte capacity.
func (r *Residency) Capacity() int64 { return r.capacity }

// Pins returns the pinned slot count in effect.
func (r *Residency) Pins() int { return r.pinned }

// Resident reports whether slot i is in the fast tier.
func (r *Residency) Resident(i int) bool { return r.resident[i] }

// ResidentBytes returns the bytes currently held.
func (r *Residency) ResidentBytes() int64 { return r.used }

// Heat returns the per-slot demand-use counts (aliased; callers must not
// mutate).
func (r *Residency) Heat() []int64 { return r.heat }

// Stats returns the counters so far.
func (r *Residency) Stats() ResidencyStats { return r.stats }

// Warm marks slot i resident without counting a miss or an eviction — the
// initial working set a preceding step's traversal left behind. It fails
// rather than evict (warming is construction-time only).
func (r *Residency) Warm(i int) bool {
	if r.resident[i] {
		return true
	}
	if r.used+r.sizes[i] > r.capacity {
		return false
	}
	r.insert(i)
	return true
}

// Touch records a demand access to slot i without changing residency — the
// tiering controller's accessor. Under hot/cold migration, placement changes
// only through planned migrations, never as a side effect of an access, but
// accesses must still land in the same heat/hit/miss accounting the offload
// scheduler uses. Returns whether the slot was resident (a fast-tier hit).
func (r *Residency) Touch(i int) bool {
	r.tick++
	r.heat[i]++
	// Recency is a property of the access, not of residency: a far slot's
	// last use must advance too, or a recency-ranked migration policy could
	// never see it as a promotion candidate. Eviction ordering among
	// resident slots is unaffected.
	r.lastUse[i] = r.tick
	if r.resident[i] {
		r.stats.Hits++
		return true
	}
	r.stats.DemandMisses++
	return false
}

// Evict explicitly demotes slot i out of the fast tier — the tiering
// controller's migration primitive, distinct from policy-driven makeRoom
// eviction. Pinned and non-resident slots refuse; returns whether the slot
// was resident and is now demoted.
func (r *Residency) Evict(i int) bool {
	if i < r.pinned || !r.resident[i] {
		return false
	}
	r.resident[i] = false
	r.prefetched[i] = false
	r.used -= r.sizes[i]
	r.stats.Evictions++
	r.stats.EvictedBytes += r.sizes[i]
	recordEviction(r.sizes[i])
	return true
}

// LastUse returns slot i's recency tick (the LRU victim key), for
// recency-based placement policies layered on top of the tracker.
func (r *Residency) LastUse(i int) int64 { return r.lastUse[i] }

func (r *Residency) insert(i int) {
	r.resident[i] = true
	r.used += r.sizes[i]
	r.tick++
	r.loads++
	r.lastUse[i] = r.tick
	r.loadSeq[i] = r.loads
}

// Use records a demand access to slot i with slot `executing` currently on
// the compute unit (pass i itself outside any overlap window). It returns
// whether the access missed (the caller prices the on-critical-path fetch)
// and how many bytes of evictions made room.
func (r *Residency) Use(i, executing int) (miss bool, evictedBytes int64) {
	r.tick++
	r.heat[i]++
	if r.resident[i] {
		r.stats.Hits++
		if r.prefetched[i] {
			r.stats.PrefetchHits++
			r.prefetched[i] = false
		}
		r.lastUse[i] = r.tick
		return false, 0
	}
	r.stats.DemandMisses++
	evictedBytes = r.makeRoom(r.sizes[i], i, executing)
	if r.used+r.sizes[i] > r.capacity {
		// Unreachable by construction (capacity >= max slot and makeRoom
		// only refuses pinned/executing slots, which the constructor
		// guarantees leave room) — but fail loudly, not silently.
		panic(fmt.Sprintf("staging: cannot fit slot %d (%d bytes) in %d/%d", i, r.sizes[i], r.used, r.capacity))
	}
	r.insert(i)
	r.stats.LoadedBytes += r.sizes[i]
	return true, evictedBytes
}

// Prefetch loads slot i ahead of use, with slot `executing` on the compute
// unit. A prefetch never evicts the executing slot or a pinned slot; if no
// other victim exists it is skipped (the scheduler falls back to a demand
// fetch later). Returns whether a fetch was actually started.
func (r *Residency) Prefetch(i, executing int) bool {
	if r.resident[i] {
		return false
	}
	if !r.canMakeRoom(r.sizes[i], i, executing) {
		r.stats.PrefetchSkipped++
		return false
	}
	r.makeRoom(r.sizes[i], i, executing)
	r.insert(i)
	r.prefetched[i] = true
	r.stats.PrefetchIssued++
	r.stats.LoadedBytes += r.sizes[i]
	return true
}

// victim returns the policy's next eviction candidate, excluding pinned
// slots, the executing slot, and the slot being loaded; -1 if none.
func (r *Residency) victim(loading, executing int) int {
	best := -1
	var bestKey int64
	for i := r.pinned; i < len(r.sizes); i++ {
		if !r.resident[i] || i == loading || i == executing {
			continue
		}
		key := r.lastUse[i]
		if r.policy == FIFO {
			key = r.loadSeq[i]
		}
		if best == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	return best
}

func (r *Residency) canMakeRoom(need int64, loading, executing int) bool {
	free := r.capacity - r.used
	for i := r.pinned; i < len(r.sizes) && free < need; i++ {
		if r.resident[i] && i != loading && i != executing {
			free += r.sizes[i]
		}
	}
	return free >= need
}

func (r *Residency) makeRoom(need int64, loading, executing int) (evictedBytes int64) {
	for r.capacity-r.used < need {
		v := r.victim(loading, executing)
		if v < 0 {
			break
		}
		r.resident[v] = false
		r.prefetched[v] = false
		r.used -= r.sizes[v]
		r.stats.Evictions++
		r.stats.EvictedBytes += r.sizes[v]
		evictedBytes += r.sizes[v]
		recordEviction(r.sizes[v])
	}
	return evictedBytes
}

// CheckInvariants validates the residency laws the conformance layer
// threads through the scheduler: the byte account matches the resident
// set exactly (no layer lost, none double-counted), the per-tier capacity
// is respected, and pinned slots are still wired down.
func (r *Residency) CheckInvariants() error {
	var used int64
	for i, res := range r.resident {
		if res {
			used += r.sizes[i]
		} else if r.prefetched[i] {
			return fmt.Errorf("staging: slot %d prefetched but not resident", i)
		}
	}
	if used != r.used {
		return fmt.Errorf("staging: resident bytes %d != tracked %d (layer lost)", used, r.used)
	}
	if r.used > r.capacity {
		return fmt.Errorf("staging: resident bytes %d exceed capacity %d", r.used, r.capacity)
	}
	for i := 0; i < r.pinned; i++ {
		if !r.resident[i] {
			return fmt.Errorf("staging: pinned slot %d was evicted", i)
		}
	}
	return nil
}
