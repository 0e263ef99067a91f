package core

import (
	"sync"

	"teco/internal/phases"
)

// Process-wide plane totals for the daemon's /statz endpoint. A counter
// lives in the plane that sees the event — staging.Residency counts
// residency churn, tiering.Controller placement and migration, and
// fabric.Switch port failures — and the engine copies those counts into the
// result's Layer, Tier and Fabric blocks. Every completed StepFabric,
// StepLayered and RunTiered result is folded here exactly once; plain Step
// and a plane call that returns an error record nothing. The totals are
// monotone for the life of the process.

// FabricCounters is the /statz fabric block: switched-fabric failure-path
// events summed over every completed StepFabric.
type FabricCounters struct {
	// PortsDown counts ports killed (never revived ports subtracted: the
	// counter records events, not current state).
	PortsDown int64 `json:"ports_down"`
	// Failovers counts sends rerouted onto a spare port.
	Failovers int64 `json:"failovers"`
	// FailoverRetries counts backoff rounds spent probing for a route.
	FailoverRetries int64 `json:"failover_retries"`
}

// LayerCounters is the /statz layers block: per-layer offload activity
// summed over every completed StepLayered.
type LayerCounters struct {
	// DemandMisses / Hits / PrefetchHits count demand accesses that fetched
	// on the critical path, found the layer resident, and found it resident
	// because a prefetch raced ahead of use.
	DemandMisses int64 `json:"demand_misses"`
	Hits         int64 `json:"hits"`
	PrefetchHits int64 `json:"prefetch_hits"`
	// PrefetchIssued counts prefetch fetches started.
	PrefetchIssued int64 `json:"prefetch_issued"`
	// Evictions / EvictedBytes count fast-tier churn; LoadedBytes is the
	// far-tier fetch volume (LayerStats.FetchBytes, activation refetches
	// included).
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	LoadedBytes  int64 `json:"loaded_bytes"`
	// WritebackBytes is the volume written back to the far tier
	// (activation spills).
	WritebackBytes int64 `json:"writeback_bytes"`
	// SchedSteps counts the layered steps folded.
	SchedSteps int64 `json:"sched_steps"`
}

// TierCounters is the /statz tiering block: heterogeneous-tiering activity
// summed over every completed RunTiered.
type TierCounters struct {
	// FastHits / FarAccesses classify demand slot accesses by the tier
	// that served them.
	FastHits    int64 `json:"fast_hits"`
	FarAccesses int64 `json:"far_accesses"`
	// PlanSteps counts migration planning rounds (one per tiered step).
	PlanSteps int64 `json:"plan_steps"`
	// Migrations / PromotedBytes / DemotedBytes count hot/cold moves;
	// Deferred counts promotions pushed to a later step by the budget
	// throttle.
	Migrations    int64 `json:"migrations"`
	PromotedBytes int64 `json:"promoted_bytes"`
	DemotedBytes  int64 `json:"demoted_bytes"`
	Deferred      int64 `json:"deferred"`
}

// PlaneCounters is a point-in-time copy of the process-wide plane totals.
type PlaneCounters struct {
	Fabric  FabricCounters
	Layers  LayerCounters
	Tiering TierCounters
}

var planes struct {
	sync.Mutex
	c PlaneCounters
}

// Planes returns the current process-wide plane totals.
func Planes() PlaneCounters {
	planes.Lock()
	defer planes.Unlock()
	return planes.c
}

// record folds one completed plane result into the totals: its Fabric,
// Layer and Tier blocks (whichever the plane filled; the others are zero).
func record(r phases.StepResult) {
	planes.Lock()
	defer planes.Unlock()
	f, l, t := &planes.c.Fabric, &planes.c.Layers, &planes.c.Tiering
	f.PortsDown += r.Fabric.PortsDown
	f.Failovers += r.Fabric.Failovers
	f.FailoverRetries += r.Fabric.FailoverRetries
	if r.Layer.Layers != 0 {
		l.DemandMisses += r.Layer.DemandMisses
		l.Hits += r.Layer.Hits
		l.PrefetchHits += r.Layer.PrefetchHits
		l.PrefetchIssued += r.Layer.PrefetchIssued
		l.Evictions += r.Layer.Evictions
		l.EvictedBytes += r.Layer.EvictedBytes
		l.LoadedBytes += r.Layer.FetchBytes
		l.WritebackBytes += r.Layer.WritebackBytes
		l.SchedSteps++
	}
	t.FastHits += r.Tier.FastHits
	t.FarAccesses += r.Tier.FarAccesses
	t.PlanSteps += r.Tier.Steps
	t.Migrations += r.Tier.Migrations
	t.PromotedBytes += r.Tier.PromotedBytes
	t.DemotedBytes += r.Tier.DemotedBytes
	t.Deferred += r.Tier.Deferred
}
