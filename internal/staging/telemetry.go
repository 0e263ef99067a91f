package staging

import "sync/atomic"

// Process-wide layer-offload telemetry. The timing engine's per-layer
// scheduler (core.StepLayered) records residency events here, and every
// Residency records its evictions, so the daemon's /statz endpoint can
// show layer heat and fast-tier churn alongside the fabric and cache
// figures. Counters are monotone for the life of the process.
var telemetry struct {
	demandMisses   atomic.Int64
	hits           atomic.Int64
	prefetchHits   atomic.Int64
	prefetchIssued atomic.Int64
	evictions      atomic.Int64
	evictedBytes   atomic.Int64
	loadedBytes    atomic.Int64
	writebackBytes atomic.Int64
	schedSteps     atomic.Int64
}

// LayerCounters is a point-in-time copy of the process-wide layer-offload
// telemetry, JSON-shaped for /statz.
type LayerCounters struct {
	// DemandMisses / Hits / PrefetchHits count demand accesses that fetched
	// on the critical path, found the layer resident, and found it resident
	// because a prefetch raced ahead of use.
	DemandMisses int64 `json:"demand_misses"`
	Hits         int64 `json:"hits"`
	PrefetchHits int64 `json:"prefetch_hits"`
	// PrefetchIssued counts prefetch fetches started.
	PrefetchIssued int64 `json:"prefetch_issued"`
	// Evictions / EvictedBytes / LoadedBytes count fast-tier churn.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	LoadedBytes  int64 `json:"loaded_bytes"`
	// WritebackBytes is the volume written back to the far tier
	// (activation spills and layer writebacks).
	WritebackBytes int64 `json:"writeback_bytes"`
	// SchedSteps counts steps core.StepLayered scheduled.
	SchedSteps int64 `json:"sched_steps"`
}

// Counters returns the current process-wide layer-offload telemetry.
func Counters() LayerCounters {
	return LayerCounters{
		DemandMisses:   telemetry.demandMisses.Load(),
		Hits:           telemetry.hits.Load(),
		PrefetchHits:   telemetry.prefetchHits.Load(),
		PrefetchIssued: telemetry.prefetchIssued.Load(),
		Evictions:      telemetry.evictions.Load(),
		EvictedBytes:   telemetry.evictedBytes.Load(),
		LoadedBytes:    telemetry.loadedBytes.Load(),
		WritebackBytes: telemetry.writebackBytes.Load(),
		SchedSteps:     telemetry.schedSteps.Load(),
	}
}

func recordEviction(bytes int64) {
	telemetry.evictions.Add(1)
	telemetry.evictedBytes.Add(bytes)
}

// RecordSchedStep folds one scheduled step's residency deltas into the
// process-wide counters (delta = after - before for the step).
func RecordSchedStep(delta ResidencyStats) {
	telemetry.demandMisses.Add(delta.DemandMisses)
	telemetry.hits.Add(delta.Hits)
	telemetry.prefetchHits.Add(delta.PrefetchHits)
	telemetry.prefetchIssued.Add(delta.PrefetchIssued)
	telemetry.loadedBytes.Add(delta.LoadedBytes)
	telemetry.schedSteps.Add(1)
}

// RecordWriteback notes n bytes written back to the far tier.
func RecordWriteback(n int64) { telemetry.writebackBytes.Add(n) }
