// Package tiering implements the heterogeneous-memory tiering controller:
// hot/cold placement of layer-granular tensor slots across a fast host-DRAM
// tier and a CXL-expander far tier, with online migration planned from the
// heat the staging residency tracker already records (10Cache/CXLRAMSim-
// style cost-model placement; ROADMAP item 5).
//
// Like the offload scheduler, the controller has two halves sharing this one
// implementation: the functional trainer (realtrain) runs it as pure
// bookkeeping — placement never touches numerics, so any tiering config
// trains bit-identically to the static baseline — and the timing engine
// (core.RunTiered) prices its far-tier accesses and migration traffic on
// the CXL link streams. Placement changes ONLY through planned migrations,
// bounded per step by a byte budget (the admission throttle that keeps
// migration from starving the training step); a demand access to a far slot
// is charged but never promotes by itself.
package tiering

import (
	"fmt"
	"sort"

	"teco/internal/staging"
)

// Policy selects how the controller ranks slots for placement.
type Policy int

const (
	// Heat ranks by cumulative demand-use count (the /statz heat map):
	// promote the hottest far slot over strictly colder fast victims.
	Heat Policy = iota
	// Recency ranks by last-use tick — an LRU-flavored policy that chases
	// the most recently touched slots instead of the most touched.
	Recency
	// Static freezes the initial first-fit placement: no migrations ever.
	Static
)

// ParsePolicy maps the flag spelling to a Policy; "" is Heat.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "heat":
		return Heat, nil
	case "lru":
		return Recency, nil
	case "static":
		return Static, nil
	default:
		return 0, fmt.Errorf("tiering: unknown policy %q (want heat, lru or static)", s)
	}
}

// Config sizes a Controller.
type Config struct {
	// Sizes are the per-slot byte sizes (layer-granular tensor slots).
	Sizes []int64
	// FastBytes is the fast-tier (host DRAM) capacity; <= 0 means the whole
	// model fits fast and the controller degenerates to static all-fast
	// placement.
	FastBytes int64
	// Policy ranks slots for promotion and demotion.
	Policy Policy
	// BudgetBytes is the per-PlanStep migration byte budget — the admission
	// throttle. Promotions and the demotions that make room for them both
	// count against it; 0 disables migration (static placement).
	BudgetBytes int64
}

// Migration is one planned slot move between the tiers.
type Migration struct {
	Slot int
	// Promote moves far→fast when true, fast→far when false.
	Promote bool
	Bytes   int64
}

// Stats is a point-in-time summary of controller activity.
type Stats struct {
	Slots         int64
	FastBytes     int64
	ResidentBytes int64
	// FastHits / FarAccesses classify demand accesses by serving tier
	// (straight from the shared staging.Residency accounting).
	FastHits      int64
	FarAccesses   int64
	PlanSteps     int64
	Migrations    int64
	PromotedBytes int64
	DemotedBytes  int64
	// Deferred counts promotions wanted but pushed past this step by the
	// budget throttle.
	Deferred int64
}

// Controller tracks slot placement across the two tiers. Not safe for
// concurrent use; each trainer or timing plane owns one.
type Controller struct {
	res    *staging.Residency
	sizes  []int64
	policy Policy
	budget int64

	total           int64
	farBytes        int64
	initialResident int64

	planSteps     int64
	migrations    int64
	promotedBytes int64
	demotedBytes  int64
	deferred      int64
}

// New builds a controller with the static first-fit initial placement: the
// fast tier is filled in slot order until capacity, everything else starts
// on the CXL expander. The residency tracker underneath is the same
// implementation the offload scheduler uses, so heat/hit/miss accounting
// has a single definition across the repo.
func New(cfg Config) (*Controller, error) {
	if cfg.BudgetBytes < 0 {
		return nil, fmt.Errorf("tiering: negative migration budget %d", cfg.BudgetBytes)
	}
	res, err := staging.NewResidency(cfg.Sizes, cfg.FastBytes, staging.LRU, 0)
	if err != nil {
		return nil, fmt.Errorf("tiering: %w", err)
	}
	c := &Controller{
		res:    res,
		sizes:  append([]int64(nil), cfg.Sizes...),
		policy: cfg.Policy,
		budget: cfg.BudgetBytes,
	}
	for _, s := range c.sizes {
		c.total += s
	}
	for i := range c.sizes {
		res.Warm(i) // first-fit: skips slots that no longer fit
	}
	c.farBytes = c.total - res.ResidentBytes()
	c.initialResident = res.ResidentBytes()
	return c, nil
}

// Capacity returns the fast tier's effective byte capacity.
func (c *Controller) Capacity() int64 { return c.res.Capacity() }

// Placement returns a copy of the current per-slot placement (true = fast).
func (c *Controller) Placement() []bool {
	out := make([]bool, len(c.sizes))
	for i := range out {
		out[i] = c.res.Resident(i)
	}
	return out
}

// Heat returns a copy of the per-slot demand-use counts.
func (c *Controller) Heat() []int64 {
	return append([]int64(nil), c.res.Heat()...)
}

// Touch records a demand access to slot i and reports whether the fast tier
// served it. Placement is never changed by an access.
func (c *Controller) Touch(i int) bool { return c.res.Touch(i) }

// score is the policy's placement rank for slot i (higher = keep fast).
func (c *Controller) score(i int) int64 {
	if c.policy == Recency {
		return c.res.LastUse(i)
	}
	return c.res.Heat()[i]
}

// PlanStep plans and applies this step's migrations from the heat recorded
// so far, excluding the executing slot (pass -1 between steps). Candidates
// are considered hottest-first; each promotion demotes only strictly colder
// victims (equal rank never churns) and the whole batch — promotions plus
// the demotions making room for them — is cut off by the byte budget. The
// returned list is what the timing plane prices as background stream
// traffic; placement has already been updated when PlanStep returns.
func (c *Controller) PlanStep(executing int) []Migration {
	c.planSteps++
	if c.policy == Static || c.budget <= 0 {
		return nil
	}
	// Far-tier candidates, hottest first, ties to the lower index for
	// determinism.
	var cands []int
	for i := range c.sizes {
		if !c.res.Resident(i) && i != executing {
			cands = append(cands, i)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		sa, sb := c.score(cands[a]), c.score(cands[b])
		if sa != sb {
			return sa > sb
		}
		return cands[a] < cands[b]
	})
	var out []Migration
	var used int64
	for _, h := range cands {
		demote, cost, ok := c.demotionSet(h, executing)
		if !ok {
			continue // nothing strictly colder to displace
		}
		if used+cost > c.budget {
			// Admission throttle: the hottest remaining candidate does not
			// fit this step's budget, so planning stops here — migration
			// never crowds out more than BudgetBytes of link time per step.
			c.deferred++
			break
		}
		for _, v := range demote {
			c.res.Evict(v)
			c.farBytes += c.sizes[v]
			c.demotedBytes += c.sizes[v]
			c.migrations++
			out = append(out, Migration{Slot: v, Promote: false, Bytes: c.sizes[v]})
		}
		if !c.res.Warm(h) {
			panic(fmt.Sprintf("tiering: promotion of slot %d failed after making room", h))
		}
		c.farBytes -= c.sizes[h]
		c.promotedBytes += c.sizes[h]
		c.migrations++
		out = append(out, Migration{Slot: h, Promote: true, Bytes: c.sizes[h]})
		used += cost
	}
	return out
}

// demotionSet assembles the coldest strictly-colder-than-h fast victims
// whose eviction makes room for h, and the byte cost of the whole move
// (demotions + the promotion itself). ok is false when no such set exists.
func (c *Controller) demotionSet(h, executing int) (demote []int, cost int64, ok bool) {
	free := c.res.Capacity() - c.res.ResidentBytes()
	cost = c.sizes[h]
	taken := make(map[int]bool)
	for free < c.sizes[h] {
		v := -1
		var vKey int64
		for i := range c.sizes {
			if !c.res.Resident(i) || taken[i] || i == executing {
				continue
			}
			key := c.score(i)
			if key >= c.score(h) {
				continue
			}
			if v == -1 || key < vKey || (key == vKey && i < v) {
				v, vKey = i, key
			}
		}
		if v < 0 {
			return nil, 0, false
		}
		taken[v] = true
		demote = append(demote, v)
		free += c.sizes[v]
		cost += c.sizes[v]
	}
	return demote, cost, true
}

// Stats returns the controller's activity counters.
func (c *Controller) Stats() Stats {
	rs := c.res.Stats()
	return Stats{
		Slots:         int64(len(c.sizes)),
		FastBytes:     c.res.Capacity(),
		ResidentBytes: c.res.ResidentBytes(),
		FastHits:      rs.Hits,
		FarAccesses:   rs.DemandMisses,
		PlanSteps:     c.planSteps,
		Migrations:    c.migrations,
		PromotedBytes: c.promotedBytes,
		DemotedBytes:  c.demotedBytes,
		Deferred:      c.deferred,
	}
}

// CheckInvariants validates the tiering laws the conformance layer threads
// through both halves: the residency laws of the fast tier, no tensor lost
// (every byte is on exactly one tier), and migration conservation (bytes
// promoted minus bytes demoted is exactly the fast tier's net growth — what
// left one tier arrived at the other).
func (c *Controller) CheckInvariants() error {
	if err := c.res.CheckInvariants(); err != nil {
		return err
	}
	if c.farBytes < 0 {
		return fmt.Errorf("tiering: negative far-tier bytes %d", c.farBytes)
	}
	if got := c.farBytes + c.res.ResidentBytes(); got != c.total {
		return fmt.Errorf("tiering: tier bytes %d != total %d (tensor lost)", got, c.total)
	}
	if net := c.promotedBytes - c.demotedBytes; net != c.res.ResidentBytes()-c.initialResident {
		return fmt.Errorf("tiering: migration conservation broken: net promoted %d != fast-tier growth %d",
			net, c.res.ResidentBytes()-c.initialResident)
	}
	if c.migrations == 0 && (c.promotedBytes != 0 || c.demotedBytes != 0) {
		return fmt.Errorf("tiering: migrated bytes without migrations")
	}
	return nil
}
