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

// paramLinkBytes returns the CPU->GPU payload volume for one step.
func (e *Engine) paramLinkBytes(m modelzoo.Model, useDBA bool) int64 {
	if !useDBA || e.Config.Invalidation {
		return m.ParamBytes()
	}
	// DBA: dirty_bytes of every 4-byte word cross the link.
	return m.ParamBytes() * int64(e.Config.DirtyBytes) / 4
}

// Step simulates one training step under the configured variant: the
// update protocol runs the one-replica dataflow (see dataflow), the
// invalidation ablation its own on-demand schedule.
func (e *Engine) Step(m modelzoo.Model, batch int) phases.StepResult {
	if !e.Config.Invalidation {
		res, err := e.dataflow(m, batch, FabricConfig{})
		if err != nil {
			panic(err) // unreachable: a point-to-point send never fails
		}
		return res
	}
	res := e.stepInvalidation(m, batch)
	if check.Enabled() {
		check.Check(res.Check)
	}
	return res
}

// foldFaults folds a step's link-fault accounting into res: exposed is the
// step's faulted-minus-fault-free fence window, and grad and prm are the
// transports that carried each direction. Poisoned lines fall back to
// on-demand fetches: the consumer re-requests the full line (aggregation
// abandoned) on the critical path, after the fence that surfaced the poison
// — a NAK-style poison notification, the request/response message round
// trip, and the full-line resend.
func (e *Engine) foldFaults(res *phases.StepResult, exposed sim.Time, grad, prm *transport) {
	if !e.Config.Faults.Enabled() {
		return
	}
	var fs cxl.LinkFaultStats
	recovery := func(t *transport) (d sim.Time, bytes int64) {
		for i := 0; i < t.links(); i++ {
			l := t.link(i)
			ls := l.FaultStats()
			fs = fs.Add(ls)
			if ls.Poisoned > 0 {
				per := cxl.DefaultNakDelay + 2*l.ServiceTime(cxl.MsgBytes, 0) + l.ServiceTime(mem.LineSize, 0)
				d += sim.Time(ls.Poisoned) * per
				bytes += ls.Poisoned * (cxl.MsgBytes + mem.LineSize)
			}
		}
		return d, bytes
	}
	gradRec, gradBytes := recovery(grad)
	prmRec, prmBytes := recovery(prm)
	res.Grad += gradRec
	res.Prm += prmRec
	res.GradLinkBytes += gradBytes
	res.ParamLinkBytes += prmBytes
	res.Fault = phases.FaultStats{
		Retries:       fs.Retries,
		ReplayedBytes: fs.ReplayedBytes,
		Poisoned:      fs.Poisoned,
		Recovered:     fs.Poisoned,
		Exposed:       exposed + gradRec + prmRec,
	}
}

// linePayload returns the on-link payload per 64-byte parameter line.
func (e *Engine) linePayload(useDBA bool) int {
	reg := dba.Register{Active: useDBA, DirtyBytes: uint8(e.Config.DirtyBytes)}
	return reg.PayloadBytes()
}

// stepInvalidation is the §IV-A2 ablation: with stock MESI, updates send
// only invalidation messages; the data crosses the link on demand when the
// consumer reads it, placing both full transfers on the critical path. The
// paper measures this costing +56.6% training time on average.
func (e *Engine) stepInvalidation(m modelzoo.Model, batch int) phases.StepResult {
	// Seeds 2·seed+3/+4: the ablation's links draw their own streams.
	var prm, grad transport
	e.pointToPoint(&prm, 3)
	e.pointToPoint(&grad, 4)

	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)

	// Parameters fetched on demand when forward touches them (before any
	// compute can proceed), gradients fetched on demand when the CPU
	// clips. Invalidation messages also occupy the link.
	fullWire := cxl.WirePacketBytes(0)
	lines := mem.LinesIn(m.ParamBytes())
	invalMsgs := sim.DurationForBytes(lines*cxl.MsgBytes, prm.l.BytesPerSecond())
	pf := prm.l.SendFlow(0, m.ParamBytes(), 0, fullWire, false)
	gf := grad.l.SendFlow(0, m.GradBytes(), 0, fullWire, false)

	clip := e.CPU.ClipTime(m.Params)
	adam := e.CPU.AdamTime(m.Params)

	res := phases.StepResult{
		Variant: e.Config.Variant(),
		Breakdown: phases.Breakdown{
			Fwd:  fwd,
			Bwd:  bwd,
			Grad: gf.Done + invalMsgs,
			Clip: clip,
			Adam: adam,
			Prm:  pf.Done,
		},
		ParamLinkBytes: m.ParamBytes() + lines*cxl.MsgBytes,
		GradLinkBytes:  m.GradBytes(),
	}
	e.foldFaults(&res, (pf.Done-pf.CleanDone)+(gf.Done-gf.CleanDone), &grad, &prm)
	return res
}
