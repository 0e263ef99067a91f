// Package phases defines the per-training-step time breakdown shared by the
// ZeRO-Offload baseline engine and the TECO engines — the exact categories
// of the paper's Figure 12: forward-backward, gradient transfer exposed to
// the critical path, gradient optimizer (clipping), parameter optimization
// (ADAM), and parameter transfer exposed to the critical path.
package phases

import (
	"fmt"
	"strconv"
	"strings"

	"teco/internal/sim"
)

// Breakdown is the critical-path decomposition of one training step. Phases
// are laid end to end: Total is their sum by construction.
type Breakdown struct {
	Fwd  sim.Time // forward propagation (GPU)
	Bwd  sim.Time // backward propagation (GPU)
	Grad sim.Time // gradient transfer time exposed beyond backward
	Clip sim.Time // gradient clipping (CPU)
	Adam sim.Time // parameter optimization (CPU ADAM)
	Prm  sim.Time // parameter transfer time exposed beyond ADAM
}

// Total returns the end-to-end step time.
func (b Breakdown) Total() sim.Time {
	return b.Fwd + b.Bwd + b.Grad + b.Clip + b.Adam + b.Prm
}

// CommExposed returns the communication time on the critical path — the
// quantity Table I reports as a fraction of training time.
func (b Breakdown) CommExposed() sim.Time { return b.Grad + b.Prm }

// CommFraction returns CommExposed / Total.
func (b Breakdown) CommFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.CommExposed()) / float64(t)
}

// Compute returns the non-communication time.
func (b Breakdown) Compute() sim.Time { return b.Total() - b.CommExposed() }

// String renders the breakdown. Float formatting is pinned through strconv
// (no locale- or verb-sensitive paths), so the output is byte-identical
// across platforms and Go versions — asserted by the conformance goldens.
func (b Breakdown) String() string {
	var sb strings.Builder
	sb.WriteString("fwd=" + b.Fwd.String())
	sb.WriteString(" bwd=" + b.Bwd.String())
	sb.WriteString(" grad=" + b.Grad.String())
	sb.WriteString(" clip=" + b.Clip.String())
	sb.WriteString(" adam=" + b.Adam.String())
	sb.WriteString(" param=" + b.Prm.String())
	sb.WriteString(" total=" + b.Total().String())
	sb.WriteString(" (comm " + strconv.FormatFloat(100*b.CommFraction(), 'f', 1, 64) + "%)")
	return sb.String()
}

// Check validates the breakdown's conservation laws and returns the first
// violation, if any: no phase may carry a negative duration (exposure terms
// are clamped differences, so a negative one means broken fence ordering),
// and Total must be exactly the sum of the six phases — the additivity the
// paper's Fig 12 stacking relies on.
func (b Breakdown) Check() error {
	for _, p := range []struct {
		name string
		d    sim.Time
	}{{"fwd", b.Fwd}, {"bwd", b.Bwd}, {"grad", b.Grad}, {"clip", b.Clip}, {"adam", b.Adam}, {"param", b.Prm}} {
		if p.d < 0 {
			return fmt.Errorf("phases: negative %s duration %v", p.name, p.d)
		}
	}
	if sum := b.Fwd + b.Bwd + b.Grad + b.Clip + b.Adam + b.Prm; b.Total() != sum {
		return fmt.Errorf("phases: total %v != phase sum %v", b.Total(), sum)
	}
	return nil
}

// Variant identifies the system being simulated.
type Variant int

const (
	// ZeroOffload is the DeepSpeed baseline (paper Fig 1).
	ZeroOffload Variant = iota
	// TECOCXL uses the update-coherent CXL giant cache without DBA.
	TECOCXL
	// TECOReduction uses CXL plus dirty-byte aggregation.
	TECOReduction
	// TECOInvalidation is the ablation running TECO's giant cache with
	// the stock invalidation protocol (on-demand transfers, §IV-A2).
	TECOInvalidation
)

func (v Variant) String() string {
	switch v {
	case ZeroOffload:
		return "ZeRO-Offload"
	case TECOCXL:
		return "TECO-CXL"
	case TECOReduction:
		return "TECO-Reduction"
	case TECOInvalidation:
		return "TECO-Invalidation"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// FaultStats summarizes link-fault activity and recovery during one step.
// The zero value means a pristine link (no fault injection configured).
type FaultStats struct {
	// Retries counts link-layer packet retransmissions (NAK + replay).
	Retries int64
	// ReplayedBytes is the wire volume retransmitted from replay buffers.
	ReplayedBytes int64
	// Poisoned counts packets whose retry budget was exhausted and that
	// were delivered poisoned to the protocol layer.
	Poisoned int64
	// Recovered counts poisoned lines the coherence protocol re-fetched
	// on demand instead of consuming corrupt data.
	Recovered int64
	// Stalls counts injected controller-queue stalls; StallTime is their
	// cumulative duration.
	Stalls    int64
	StallTime sim.Time
	// Exposed is the retry/recovery latency on the step's critical path:
	// the difference between the faulted and fault-free fence times plus
	// the on-demand poison-recovery round trips.
	Exposed sim.Time
	// Degraded reports that the graceful-degradation policy switched the
	// step from DBA-aggregated payloads to full-line transfers.
	Degraded bool
}

// Any reports whether any fault activity was recorded.
func (f FaultStats) Any() bool {
	return f.Retries != 0 || f.Poisoned != 0 || f.Stalls != 0 ||
		f.Exposed != 0 || f.Degraded
}

// FabricStats summarizes switched-fabric activity during one step of the
// data-parallel mode (zero when the step ran on the point-to-point link).
type FabricStats struct {
	// Replicas is the data-parallel width the step was configured with;
	// HostPorts is the spine's uplink count (Replicas/HostPorts is the
	// oversubscription ratio).
	Replicas  int64
	HostPorts int64
	// PortsDown counts ports killed during the step; Failovers and
	// FailoverRetries count reroutes onto spare ports and the backoff
	// probes spent finding them.
	PortsDown       int64
	Failovers       int64
	FailoverRetries int64
	// SpineBytes is the payload volume that crossed the switch spine;
	// SpineQueued is the cumulative time flows waited for it (the
	// oversubscription cost).
	SpineBytes  int64
	SpineQueued sim.Time
	// LostReplicas counts replicas dropped after failover was exhausted;
	// Redistributed counts their batch shards reassigned to survivors;
	// Degraded reports the step completed with a shrunken group.
	LostReplicas  int64
	Redistributed int64
	Degraded      bool
}

// Any reports whether any fabric activity was recorded.
func (f FabricStats) Any() bool {
	return f.Replicas != 0 || f.SpineBytes != 0 || f.PortsDown != 0 ||
		f.Failovers != 0 || f.LostReplicas != 0
}

// LayerStats summarizes per-layer offload scheduling during one step: how
// the layer traversal interacted with the capacity-bounded fast tier (zero
// when the step ran without a layer scheduler).
type LayerStats struct {
	// Layers is the scheduled layer count; CacheBytes is the fast-tier
	// capacity and ResidentBytes the bytes held when the step finished.
	Layers        int64
	CacheBytes    int64
	ResidentBytes int64
	// Hits / PrefetchHits / DemandMisses classify the demand uses;
	// PrefetchIssued and Evictions count fast-tier churn.
	Hits           int64
	PrefetchHits   int64
	DemandMisses   int64
	PrefetchIssued int64
	Evictions      int64
	// FetchBytes / WritebackBytes are the staging-plane link volumes
	// (layer fetches down, activation spills and writebacks up).
	FetchBytes     int64
	WritebackBytes int64
	// DemandStall is fetch latency fully exposed on the critical path
	// (layer not resident when execution reached it); PrefetchStall is the
	// residual wait on fetches a prefetch started but compute outran;
	// ActStall is the activation refetch wait of the offload mode.
	DemandStall   sim.Time
	PrefetchStall sim.Time
	ActStall      sim.Time
}

// Any reports whether any layer-scheduling activity was recorded.
func (l LayerStats) Any() bool {
	return l.Layers != 0 || l.Hits != 0 || l.DemandMisses != 0 ||
		l.FetchBytes != 0 || l.WritebackBytes != 0
}

// TierStats summarizes heterogeneous-memory tiering during one step or an
// aggregated tiered run: how slot accesses split across the fast DRAM tier
// and the CXL-expander far tier, and what the online hot/cold migration
// moved (zero when the run had no tiering controller).
type TierStats struct {
	// Slots is the tiered slot count (parameter and, when scheduled
	// separately, optimizer-state slots); Steps is the number of training
	// steps aggregated into these counters.
	Slots int64
	Steps int64
	// FastBytes is the fast-tier (host DRAM) capacity; ResidentBytes is
	// what it held when the run finished.
	FastBytes     int64
	ResidentBytes int64
	// FastHits / FarAccesses classify demand slot accesses by the tier
	// that served them; FarFetchBytes is the far-tier demand traffic
	// streamed over the CXL link.
	FastHits      int64
	FarAccesses   int64
	FarFetchBytes int64
	// Migrations / PromotedBytes / DemotedBytes count planned hot/cold
	// moves between the tiers; Deferred counts promotions the per-step
	// migration budget (the admission throttle) pushed to a later step.
	Migrations    int64
	PromotedBytes int64
	DemotedBytes  int64
	Deferred      int64
	// FarStall is far-access latency exposed on forward/backward parameter
	// touches (it extends Prm); AdamStall is the update-phase exposure on
	// master parameters and optimizer moments (it extends Adam).
	FarStall  sim.Time
	AdamStall sim.Time
}

// Any reports whether any tiering activity was recorded.
func (t TierStats) Any() bool {
	return t.Slots != 0 || t.FastHits != 0 || t.FarAccesses != 0 ||
		t.Migrations != 0 || t.FarFetchBytes != 0
}

// RecoveryStats summarizes checkpoint/restore activity above the link
// layer: how often the run checkpointed, how many silent-data-corruption
// events were detected, and what rolling back and replaying cost. The
// zero value means no checkpointing was configured.
type RecoveryStats struct {
	// CkptWrites counts persisted checkpoints; CkptBytes is their total
	// encoded volume.
	CkptWrites int64
	CkptBytes  int64
	// SDCDetected counts silent-data-corruption detections (resident-tensor
	// checksum mismatches and post-ADAM NaN/Inf scans).
	SDCDetected int64
	// Rollbacks counts restores of the last good checkpoint after a
	// detection; ReplayedSteps is the total number of training steps
	// re-executed to catch back up.
	Rollbacks     int64
	ReplayedSteps int64
	// CorruptSnapshotsSkipped counts on-disk checkpoints rejected by CRC
	// during restore (the store fell back to an older one).
	CorruptSnapshotsSkipped int64
	// RecoveryTime is the modeled time spent re-reading snapshots during
	// restores (encoded bytes at NVMe-class bandwidth, like every other
	// sim.Time in this package it is deterministic); the re-executed
	// compute is accounted separately as ReplayedSteps.
	RecoveryTime sim.Time
}

// Any reports whether any checkpoint/recovery activity was recorded.
func (r RecoveryStats) Any() bool {
	return r.CkptWrites != 0 || r.SDCDetected != 0 || r.Rollbacks != 0 ||
		r.ReplayedSteps != 0 || r.CorruptSnapshotsSkipped != 0
}

// Add returns element-wise accumulation.
func (r RecoveryStats) Add(o RecoveryStats) RecoveryStats {
	r.CkptWrites += o.CkptWrites
	r.CkptBytes += o.CkptBytes
	r.SDCDetected += o.SDCDetected
	r.Rollbacks += o.Rollbacks
	r.ReplayedSteps += o.ReplayedSteps
	r.CorruptSnapshotsSkipped += o.CorruptSnapshotsSkipped
	r.RecoveryTime += o.RecoveryTime
	return r
}

// StepResult is a simulated training step: the breakdown plus link-volume
// accounting.
type StepResult struct {
	Variant Variant
	Breakdown
	// ParamLinkBytes / GradLinkBytes are payload bytes crossing the
	// interconnect in each direction per step.
	ParamLinkBytes int64
	GradLinkBytes  int64
	// Fault is the step's link-fault accounting (zero when no faults are
	// injected).
	Fault FaultStats
	// Recovery is the run's checkpoint/restore accounting (zero when no
	// checkpointing is configured); aggregated over a run and amortized
	// per step by core.Session.
	Recovery RecoveryStats
	// Fabric is the switched-fabric accounting (zero on the
	// point-to-point engines).
	Fabric FabricStats
	// Layer is the per-layer offload-scheduling accounting (zero when the
	// step ran whole-model).
	Layer LayerStats
	// Tier is the heterogeneous-memory tiering accounting (zero when
	// placement was static whole-model).
	Tier TierStats
}

// TotalLinkBytes returns combined link volume.
func (r StepResult) TotalLinkBytes() int64 { return r.ParamLinkBytes + r.GradLinkBytes }

// Check validates the step result's accounting invariants and returns the
// first violation, if any: the breakdown laws, non-negative link volumes,
// and the fault/recovery conservation rules (a line can only be recovered
// after being poisoned, stall/exposure latencies are durations, rollbacks
// imply detections).
func (r StepResult) Check() error {
	if err := r.Breakdown.Check(); err != nil {
		return err
	}
	if r.ParamLinkBytes < 0 || r.GradLinkBytes < 0 {
		return fmt.Errorf("phases: negative link volume (param=%d grad=%d)", r.ParamLinkBytes, r.GradLinkBytes)
	}
	f := r.Fault
	if f.Retries < 0 || f.ReplayedBytes < 0 || f.Poisoned < 0 || f.Recovered < 0 || f.Stalls < 0 {
		return fmt.Errorf("phases: negative fault counter %+v", f)
	}
	if f.Recovered > f.Poisoned {
		return fmt.Errorf("phases: recovered %d lines of %d poisoned", f.Recovered, f.Poisoned)
	}
	if f.StallTime < 0 || f.Exposed < 0 {
		return fmt.Errorf("phases: negative fault latency (stall=%v exposed=%v)", f.StallTime, f.Exposed)
	}
	if f.Stalls == 0 && f.StallTime != 0 {
		return fmt.Errorf("phases: %v stall time with zero stalls", f.StallTime)
	}
	rec := r.Recovery
	if rec.CkptWrites < 0 || rec.CkptBytes < 0 || rec.SDCDetected < 0 || rec.Rollbacks < 0 ||
		rec.ReplayedSteps < 0 || rec.CorruptSnapshotsSkipped < 0 || rec.RecoveryTime < 0 {
		return fmt.Errorf("phases: negative recovery counter %+v", rec)
	}
	if rec.Rollbacks > rec.SDCDetected {
		return fmt.Errorf("phases: %d rollbacks for %d detections", rec.Rollbacks, rec.SDCDetected)
	}
	if rec.CkptWrites == 0 && rec.CkptBytes != 0 {
		return fmt.Errorf("phases: %d checkpoint bytes with zero writes", rec.CkptBytes)
	}
	fb := r.Fabric
	if fb.Replicas < 0 || fb.HostPorts < 0 || fb.PortsDown < 0 || fb.Failovers < 0 ||
		fb.FailoverRetries < 0 || fb.SpineBytes < 0 || fb.LostReplicas < 0 || fb.Redistributed < 0 {
		return fmt.Errorf("phases: negative fabric counter %+v", fb)
	}
	if fb.SpineQueued < 0 {
		return fmt.Errorf("phases: negative spine queue time %v", fb.SpineQueued)
	}
	if fb.LostReplicas > fb.PortsDown {
		return fmt.Errorf("phases: %d replicas lost with %d ports down", fb.LostReplicas, fb.PortsDown)
	}
	if fb.Replicas > 0 && fb.LostReplicas >= fb.Replicas {
		return fmt.Errorf("phases: all %d replicas lost in a completed step", fb.Replicas)
	}
	if fb.Degraded && fb.LostReplicas == 0 {
		return fmt.Errorf("phases: degraded fabric step without a lost replica")
	}
	l := r.Layer
	if l.Layers < 0 || l.CacheBytes < 0 || l.ResidentBytes < 0 || l.Hits < 0 ||
		l.PrefetchHits < 0 || l.DemandMisses < 0 || l.PrefetchIssued < 0 ||
		l.Evictions < 0 || l.FetchBytes < 0 || l.WritebackBytes < 0 {
		return fmt.Errorf("phases: negative layer counter %+v", l)
	}
	if l.DemandStall < 0 || l.PrefetchStall < 0 || l.ActStall < 0 {
		return fmt.Errorf("phases: negative layer stall (%v %v %v)", l.DemandStall, l.PrefetchStall, l.ActStall)
	}
	if l.PrefetchHits > l.Hits {
		return fmt.Errorf("phases: %d prefetch hits of %d hits", l.PrefetchHits, l.Hits)
	}
	if l.CacheBytes > 0 && l.ResidentBytes > l.CacheBytes {
		return fmt.Errorf("phases: %d resident bytes exceed %d cache", l.ResidentBytes, l.CacheBytes)
	}
	if l.DemandMisses == 0 && l.DemandStall != 0 {
		return fmt.Errorf("phases: %v demand stall with zero misses", l.DemandStall)
	}
	if l.PrefetchIssued == 0 && (l.PrefetchHits != 0 || l.PrefetchStall != 0) {
		return fmt.Errorf("phases: prefetch results without issued prefetches %+v", l)
	}
	t := r.Tier
	if t.Slots < 0 || t.Steps < 0 || t.FastBytes < 0 || t.ResidentBytes < 0 ||
		t.FastHits < 0 || t.FarAccesses < 0 || t.FarFetchBytes < 0 ||
		t.Migrations < 0 || t.PromotedBytes < 0 || t.DemotedBytes < 0 || t.Deferred < 0 {
		return fmt.Errorf("phases: negative tier counter %+v", t)
	}
	if t.FarStall < 0 || t.AdamStall < 0 {
		return fmt.Errorf("phases: negative tier stall (%v %v)", t.FarStall, t.AdamStall)
	}
	if t.FastBytes > 0 && t.ResidentBytes > t.FastBytes {
		return fmt.Errorf("phases: %d tier resident bytes exceed %d fast-tier capacity", t.ResidentBytes, t.FastBytes)
	}
	if t.Migrations == 0 && (t.PromotedBytes != 0 || t.DemotedBytes != 0) {
		return fmt.Errorf("phases: migrated bytes without migrations %+v", t)
	}
	if t.FarAccesses == 0 && t.FarFetchBytes != 0 {
		return fmt.Errorf("phases: far-tier fetch bytes without far accesses %+v", t)
	}
	// A stall needs a cause: either a demand far access or a migration
	// whose arrival an access raced (the residual wait).
	if t.FarAccesses == 0 && t.Migrations == 0 && (t.FarStall != 0 || t.AdamStall != 0) {
		return fmt.Errorf("phases: tier stall without far accesses or migrations %+v", t)
	}
	return nil
}

// Speedup returns base.Total / r.Total.
func (r StepResult) Speedup(base StepResult) float64 {
	if r.Total() == 0 {
		return 0
	}
	return float64(base.Total()) / float64(r.Total())
}

// CommReduction returns the fractional reduction of exposed communication
// time relative to base — the paper's "TECO reduces communication overhead
// by 93.7% on average (up to 100%)" metric.
func (r StepResult) CommReduction(base StepResult) float64 {
	bc := base.CommExposed()
	if bc == 0 {
		return 0
	}
	red := 1 - float64(r.CommExposed())/float64(bc)
	if red < 0 {
		return 0
	}
	return red
}
