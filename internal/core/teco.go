// Package core is TECO itself: the training-step engine that runs the
// ZeRO-Offload dataflow over the update-coherent CXL giant cache (paper
// Fig 6), optionally with dirty-byte aggregation, plus the invalidation-
// protocol ablation of §IV-A2.
//
// The functional protocol (state machines, packets, byte merging) lives in
// internal/coherence, internal/cxl and internal/dba and is exercised by
// ReplayLines; the timing engine here schedules layer-granular flows over
// the timed link model, which is how the paper's own evaluation couples
// gem5/Accel-Sim traces to its CXL emulator.
package core

import (
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/cpusim"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/gpusim"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// Config selects the TECO variant and hyperparameters.
type Config struct {
	// DBA enables dirty-byte aggregation (TECO-Reduction).
	DBA bool
	// DirtyBytes is the `dirty_bytes` hyperparameter (default 2).
	DirtyBytes int
	// Invalidation runs the giant cache under the stock MESI protocol
	// (the §IV-A2 ablation) instead of the update extension.
	Invalidation bool
	// Faults configures deterministic link fault injection; the zero value
	// is a pristine link and leaves every timing bit-identical to the
	// fault-free engine.
	Faults cxl.FaultConfig
	// Degrade enables the graceful-degradation policy: when the configured
	// error rate makes DBA-aggregated payloads uneconomical (every retried
	// aggregated packet re-pays the merge-header round trip), the step
	// falls back to full-line transfers.
	Degrade bool
	// PerLine disables the flow-coalescing fast path: every cache line
	// becomes its own event on the stream simulator instead of a
	// closed-form run segment. Results are bit-identical in both modes
	// (asserted by coalesce_test.go); per-line exists as the reference
	// path and costs orders of magnitude more wall clock. tecosim
	// -coalesce=false reaches the generators' engines through
	// experiments.Options.PerLine.
	PerLine bool
}

// Variant returns the phases.Variant this config corresponds to.
func (c Config) Variant() phases.Variant {
	switch {
	case c.Invalidation:
		return phases.TECOInvalidation
	case c.DBA:
		return phases.TECOReduction
	default:
		return phases.TECOCXL
	}
}

// Engine simulates TECO training steps.
type Engine struct {
	GPU *gpusim.GPU
	CPU *cpusim.CPU
	// LinkBandwidth is the effective CXL bandwidth (94.3% of PCIe 3.0).
	LinkBandwidth float64
	// QueueCap is the CXL controller pending-queue depth.
	QueueCap int
	Config   Config
}

// NewEngine returns a TECO engine with the calibrated defaults. It rejects
// out-of-range hyperparameters (dirty_bytes outside 1..4, invalid fault
// rates) instead of panicking — these arrive from user flags.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.DirtyBytes <= 0 {
		cfg.DirtyBytes = dba.DefaultDirtyBytes
	}
	if cfg.DirtyBytes > 4 {
		return nil, fmt.Errorf("core: dirty_bytes %d outside 1..4", cfg.DirtyBytes)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		GPU:           gpusim.V100(),
		CPU:           cpusim.Xeon6120(),
		LinkBandwidth: modelzoo.CXLLinkBandwidth(),
		QueueCap:      cxl.DefaultQueueCap,
		Config:        cfg,
	}, nil
}

// MustEngine is NewEngine for statically known-good configs; it panics on a
// config NewEngine would reject.
func MustEngine(cfg Config) *Engine {
	e, err := NewEngine(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// mustInject attaches a fault model to a link from a config NewEngine has
// already validated (derived-seed variants keep the same ranges).
func mustInject(l *cxl.Link, cfg cxl.FaultConfig) {
	if _, err := l.InjectFaults(cfg); err != nil {
		panic(err)
	}
}

// paramLinkBytes returns the CPU->GPU payload volume for one step.
func (e *Engine) paramLinkBytes(m modelzoo.Model, useDBA bool) int64 {
	if !useDBA || e.Config.Invalidation {
		return m.ParamBytes()
	}
	// DBA: dirty_bytes of every 4-byte word cross the link.
	return m.ParamBytes() * int64(e.Config.DirtyBytes) / 4
}

// Step simulates one training step under the configured variant.
func (e *Engine) Step(m modelzoo.Model, batch int) phases.StepResult {
	if e.Config.Invalidation {
		res := e.stepInvalidation(m, batch)
		if check.Enabled() {
			check.Check(res.Check)
		}
		return res
	}
	useDBA := e.Config.DBA
	degraded := false
	if useDBA && e.Config.Degrade &&
		AggregatedUneconomical(e.Config.Faults, e.Config.DirtyBytes, e.LinkBandwidth) {
		// Graceful degradation: aggregated payloads cost more expected
		// link time than full lines at this error rate — run the step
		// with DBA switched off. The variant label stays TECO-Reduction:
		// degradation is a per-step policy decision, not a reconfig.
		useDBA = false
		degraded = true
	}
	res := e.stepUpdate(m, batch, useDBA)
	res.Fault.Degraded = degraded
	if check.Enabled() {
		check.Check(res.Check)
	}
	return res
}

// stepUpdate is the TECO dataflow of Fig 6: gradients stream to CPU as
// backward writes them back ((3)); updated parameter cache lines stream to
// the giant cache as the vectorized ADAM pass writes them back ((1)/(2));
// CXLFENCE is called once after each producer finishes. useDBA selects the
// per-line payload (the degradation policy may clear it while Config.DBA
// stays set).
func (e *Engine) stepUpdate(m modelzoo.Model, batch int, useDBA bool) phases.StepResult {
	eng := sim.New()
	up := cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap)   // giant cache -> CPU
	down := cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap) // CPU -> giant cache
	fc := e.Config.Faults
	if fc.Enabled() {
		// Derived seeds keep the two directions on independent but
		// reproducible random streams.
		upCfg, downCfg := fc, fc
		upCfg.Seed = 2*fc.Seed + 1
		downCfg.Seed = 2*fc.Seed + 2
		mustInject(up, upCfg)
		mustInject(down, downCfg)
	}
	ups := cxl.NewStream(up, e.Config.PerLine)
	downs := cxl.NewStream(down, e.Config.PerLine)

	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)
	bwdStart := fwd
	bwdEnd := fwd + bwd

	// Gradients: cache-line-granular update pushes track backward layer
	// by layer (no buffer-fill delay — the fine-grained win). Gradients
	// never aggregate, so the wire packet is a full line.
	fullWire := cxl.WirePacketBytes(0)
	for _, ch := range e.GPU.GradientSchedule(m, batch) {
		ups.PushRun(bwdStart+ch.ReadyAt, int(ch.Bytes), mem.LinesIn(ch.Bytes), 0, fullWire, false)
	}
	// CXLFENCE after the last gradient writeback (Fig 6: "after the
	// buffer is full, CXLFENCE() must be called").
	gradDone := up.Fence(bwdEnd)
	gradExposed := gradDone - bwdEnd

	clip := e.CPU.ClipTime(m.Params)
	clipEnd := gradDone + clip

	// Parameters: ADAM's cache-line writebacks stream over the update
	// protocol while the pass runs. No double buffer, no explicit
	// transfer calls (Fig 6 (1)/(2)).
	adam := e.CPU.AdamTime(m.Params)
	adamEnd := clipEnd + adam
	perLine := e.perLinePayload(useDBA)
	paramWire := fullWire
	var extra sim.Time
	if useDBA {
		// Aggregator logic delay, amortized by pipelining: the paper
		// charges 1 ns end-to-end per in-flight group (§VIII-D).
		extra = dba.ModelledLatency
		paramWire = cxl.WirePacketBytes(e.Config.DirtyBytes)
	}
	for _, ch := range e.CPU.UpdateSchedule(m) {
		payload := ch.Bytes * int64(perLine) / mem.LineSize
		downs.PushRun(clipEnd+ch.ReadyAt, int(payload), mem.LinesIn(ch.Bytes), extra, paramWire, useDBA)
	}
	// One CXLFENCE after all parameters are updated (Listing 1: inside
	// optimizer.step()).
	paramDone := down.Fence(adamEnd)
	paramExposed := paramDone - adamEnd

	res := phases.StepResult{
		Variant: e.Config.Variant(),
		Breakdown: phases.Breakdown{
			Fwd:  fwd,
			Bwd:  bwd,
			Grad: gradExposed,
			Clip: clip,
			Adam: adam,
			Prm:  paramExposed,
		},
		ParamLinkBytes: e.paramLinkBytes(m, useDBA),
		GradLinkBytes:  m.GradBytes(),
	}
	if fc.Enabled() {
		// Poisoned lines fall back to on-demand fetches: the consumer
		// re-requests the full line (aggregation abandoned) on the
		// critical path, after the fence that surfaced the poison.
		gradRecovery := poisonRecoveryTime(up)
		prmRecovery := poisonRecoveryTime(down)
		res.Grad += gradRecovery
		res.Prm += prmRecovery
		res.GradLinkBytes += poisonRecoveryBytes(up)
		res.ParamLinkBytes += poisonRecoveryBytes(down)
		fs := up.FaultStats().Add(down.FaultStats())
		res.Fault = phases.FaultStats{
			Retries:       fs.Retries,
			ReplayedBytes: fs.ReplayedBytes,
			Poisoned:      fs.Poisoned,
			Recovered:     fs.Poisoned,
			Stalls:        fs.Stalls,
			StallTime:     fs.StallTime,
			Exposed: (gradDone - up.FenceClean(bwdEnd)) +
				(paramDone - down.FenceClean(adamEnd)) +
				gradRecovery + prmRecovery,
		}
	}
	return res
}

// poisonRecoveryTime prices the on-demand re-fetch of every line the link
// delivered poisoned: a NAK-style poison notification, the request/response
// message round trip, and the full-line resend, all on the critical path.
func poisonRecoveryTime(l *cxl.Link) sim.Time {
	n := l.FaultStats().Poisoned
	if n == 0 {
		return 0
	}
	cfg := l.Faults().Config()
	per := cfg.NakDelay + 2*l.ServiceTime(cxl.MsgBytes, 0) + l.ServiceTime(mem.LineSize, 0)
	return sim.Time(n) * per
}

// poisonRecoveryBytes is the extra link volume of those re-fetches.
func poisonRecoveryBytes(l *cxl.Link) int64 {
	return l.FaultStats().Poisoned * (cxl.MsgBytes + mem.LineSize)
}

// perLinePayload returns the on-link payload per 64-byte parameter line.
func (e *Engine) perLinePayload(useDBA bool) int {
	reg := dba.Register{Active: useDBA, DirtyBytes: uint8(e.Config.DirtyBytes)}
	return reg.PayloadBytes()
}

// stepInvalidation is the §IV-A2 ablation: with stock MESI, updates send
// only invalidation messages; the data crosses the link on demand when the
// consumer reads it, placing both full transfers on the critical path. The
// paper measures this costing +56.6% training time on average.
func (e *Engine) stepInvalidation(m modelzoo.Model, batch int) phases.StepResult {
	eng := sim.New()
	link := cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap)
	glink := cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap)
	fc := e.Config.Faults
	if fc.Enabled() {
		pCfg, gCfg := fc, fc
		pCfg.Seed = 2*fc.Seed + 3
		gCfg.Seed = 2*fc.Seed + 4
		mustInject(link, pCfg)
		mustInject(glink, gCfg)
	}
	links := cxl.NewStream(link, e.Config.PerLine)
	glinks := cxl.NewStream(glink, e.Config.PerLine)

	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)

	// Parameters fetched on demand when forward touches them (before any
	// compute can proceed), gradients fetched on demand when the CPU
	// clips. Invalidation messages also occupy the link.
	fullWire := cxl.WirePacketBytes(0)
	lines := mem.LinesIn(m.ParamBytes())
	invalMsgs := sim.DurationForBytes(lines*cxl.MsgBytes, link.BytesPerSecond())
	pf := links.PushRun(0, int(m.ParamBytes()), lines, 0, fullWire, false)
	paramFetch := pf.Done
	gf := glinks.PushRun(0, int(m.GradBytes()), mem.LinesIn(m.GradBytes()), 0, fullWire, false)
	gradFetch := gf.Done

	clip := e.CPU.ClipTime(m.Params)
	adam := e.CPU.AdamTime(m.Params)

	res := phases.StepResult{
		Variant: e.Config.Variant(),
		Breakdown: phases.Breakdown{
			Fwd:  fwd,
			Bwd:  bwd,
			Grad: gradFetch + invalMsgs,
			Clip: clip,
			Adam: adam,
			Prm:  paramFetch,
		},
		ParamLinkBytes: m.ParamBytes() + lines*cxl.MsgBytes,
		GradLinkBytes:  m.GradBytes(),
	}
	if fc.Enabled() {
		gradRecovery := poisonRecoveryTime(glink)
		prmRecovery := poisonRecoveryTime(link)
		res.Grad += gradRecovery
		res.Prm += prmRecovery
		res.GradLinkBytes += poisonRecoveryBytes(glink)
		res.ParamLinkBytes += poisonRecoveryBytes(link)
		fs := link.FaultStats().Add(glink.FaultStats())
		res.Fault = phases.FaultStats{
			Retries:       fs.Retries,
			ReplayedBytes: fs.ReplayedBytes,
			Poisoned:      fs.Poisoned,
			Recovered:     fs.Poisoned,
			Stalls:        fs.Stalls,
			StallTime:     fs.StallTime,
			Exposed: (pf.Done - pf.CleanDone) + (gf.Done - gf.CleanDone) +
				gradRecovery + prmRecovery,
		}
	}
	return res
}
