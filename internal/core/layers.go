package core

import (
	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
	"teco/internal/staging"
)

// Per-layer offload scheduling for the timing engine. The residency answer
// comes from staging.Residency, the one definition of "which layer is
// resident when" (tiering.Controller wraps the same implementation).
//
// StepLayered runs the ordinary TECO step (compute + coherence planes,
// untouched) and adds the far-tier plane (fartier.go) on top: a fast tier
// of CacheBytes holding a subset of the model's layers, fed from the far
// tier over the plane's own pair of timed links. The forward walk
// demand-fetches each layer it reaches and prefetches the next Prefetch
// layers while layer k computes — layer-k compute hides layer-k+1
// transfer, the paper's Fig 6 overlap at layer granularity. The backward walk mirrors this downward. Fetch
// latency that compute could not hide lands in the breakdown (param stalls
// in Prm, activation stalls and writeback exposure in Grad), so the layers
// sweep can chart scheduled step time against cache size and policy.
//
// When every layer fits (CacheBytes >= model) the plane moves no bytes and
// adds no time: StepLayered degrades to Step bit-identically, with only the
// LayerStats hit counters recording that the walk happened (asserted by the
// degeneracy table in degenerate_test.go).

// LayerConfig parameterizes one layered step.
type LayerConfig struct {
	// Layers overrides the model's layer count (0 keeps the model's own) —
	// the layers-sweep axis.
	Layers int
	// CacheBytes is the fast-tier capacity; 0 means every layer fits (the
	// all-resident baseline). A bounded capacity must hold at least the
	// largest per-layer slot.
	CacheBytes int64
	// Prefetch is the eager look-ahead depth in layers; 0 is demand-only
	// (the no-overlap serial reference).
	Prefetch int
	// Policy is the eviction discipline: "" or "lru", "fifo", "pin".
	Policy string
	// Pinned is the pinned hot-layer count (policy "pin").
	Pinned int
	// ActOffload spills each layer's activations to the far tier as
	// forward leaves them behind and refetches them for backward — the
	// long-context activation-heavy mode.
	ActOffload bool
	// SeqLen overrides the model's effective and padded sequence length
	// (the long-context knob; 0 keeps the model's own).
	SeqLen int
}

// StepLayered simulates one training step under per-layer offload
// scheduling. The compute and coherence planes are exactly Step's; the
// far-tier plane adds the layer-migration traffic and its exposed stalls.
func (e *Engine) StepLayered(m modelzoo.Model, batch int, lc LayerConfig) (phases.StepResult, error) {
	m, err := e.planeModel(m, lc, lc.Layers, lc.SeqLen, lc.CacheBytes, int64(lc.Prefetch), int64(lc.Pinned))
	if err != nil {
		return phases.StepResult{}, err
	}
	policy, err := staging.ParsePolicy(lc.Policy)
	if err != nil {
		return phases.StepResult{}, err
	}
	sizes := SlotLayout(m, false)
	res, err := staging.NewResidency(sizes, lc.CacheBytes, policy, lc.Pinned)
	if err != nil {
		return phases.StepResult{}, err
	}
	// Warm start: the fast tier holds the lowest layers, the working set
	// the previous step's backward walk (which ends at layer 0) left.
	for i := range sizes {
		if !res.Warm(i) {
			break
		}
	}

	// Compute + coherence planes: the ordinary TECO step, untouched.
	out := e.Step(m, batch)

	// Far-tier plane: parameter slot k, and in offload mode activation slot
	// n+k holding layer k's activations for the batch.
	n := m.Layers
	slots := []int64(sizes[:n:n])
	var actBytes int64
	if lc.ActOffload {
		actBytes = m.ActivationBytes(batch) / int64(n)
	}
	act := actBytes > 0
	if act {
		for k := 0; k < n; k++ {
			slots = append(slots, actBytes)
		}
	}
	p := e.newFarTier(slots)
	st := phases.LayerStats{Layers: int64(n), CacheBytes: res.Capacity()}

	use := func(k int, t sim.Time) sim.Time {
		miss, _ := res.Use(k, k)
		stall, ahead := p.demand(k, !miss, t)
		switch {
		case miss:
			st.DemandMisses++
			st.FetchBytes += sizes[k]
			st.DemandStall += stall
		case ahead:
			// A prefetch raced ahead of use; if compute outran the wire,
			// only the residual is exposed.
			st.Hits++
			st.PrefetchHits++
			st.PrefetchStall += stall
		default:
			st.Hits++
		}
		return stall
	}
	prefetch := func(j, k int, t sim.Time) {
		if res.Prefetch(j, k) {
			p.issue(j, t)
			st.PrefetchIssued++
			st.FetchBytes += sizes[j]
		}
	}

	// Forward walk: layer k computes over its telescoped share of the
	// forward time while the prefetch window pulls k+1..k+P, and spills its
	// activations behind it.
	var prmStall, actStall sim.Time
	cursor := walk(0, out.Fwd, n, false, func(k int, t sim.Time) {
		prmStall += use(k, t)
		for j := k + 1; j <= k+lc.Prefetch && j < n; j++ {
			prefetch(j, k, t)
		}
		if act {
			p.writeback(n+k, t)
			st.WritebackBytes += actBytes
		}
	})
	// Backward walk in reverse, prefetching downward; spilled activations
	// stream back in before each layer's backward, demand-fetched unless the
	// window already has them in flight.
	cursor = walk(cursor, out.Bwd, n, true, func(k int, t sim.Time) {
		prmStall += use(k, t)
		for j := k - 1; j >= k-lc.Prefetch && j >= 0; j-- {
			prefetch(j, k, t)
			if act && p.inflight[n+j] == 0 {
				p.issue(n+j, t)
				st.FetchBytes += actBytes
			}
		}
		if act {
			hit := p.inflight[n+k] != 0
			if !hit {
				st.FetchBytes += actBytes
			}
			stall, _ := p.demand(n+k, hit, t)
			st.ActStall += stall
			actStall += stall
		}
	})
	// Evicted parameter layers are clean (the CPU master copy is
	// authoritative), so evictions are free; the only writeback exposure
	// is the activation spill still in flight when backward needs the bus.
	if act {
		actStall += p.wb.Fence(cursor) - cursor
	}

	st.ResidentBytes = res.ResidentBytes()
	st.Evictions = res.Stats().Evictions
	// The far tier is a separate interconnect: its volumes stay in
	// LayerStats (FetchBytes/WritebackBytes) rather than folding into the
	// coherence link counters, but its exposed latency is real step time —
	// param stalls extend Prm, activation stalls and spill exposure Grad.
	out.Prm += prmStall
	out.Grad += actStall
	out.Layer = st

	// Both scheduler halves feed the process-wide /statz telemetry.
	staging.RecordSchedStep(staging.ResidencyStats{
		Hits:           st.Hits,
		PrefetchHits:   st.PrefetchHits,
		DemandMisses:   st.DemandMisses,
		PrefetchIssued: st.PrefetchIssued,
		LoadedBytes:    st.FetchBytes,
	})
	if st.WritebackBytes > 0 {
		staging.RecordWriteback(st.WritebackBytes)
	}

	if check.Enabled() {
		check.Check(out.Check, res.CheckInvariants)
	}
	return out, nil
}
