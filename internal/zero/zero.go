// Package zero simulates the ZeRO-Offload baseline: the five-phase training
// step of the paper's Figure 1, with the GPU-side gradient buffer, the
// CPU-side double-buffered parameter transfer, and bulk PCIe DMA. Its two
// exposure mechanisms are exactly the paper's two identified problems:
// coarse-grained transfers (buffer-granular gradient flushes that overlap
// only part of backward) and full-volume parameter pushes serialized after
// the ADAM pass.
package zero

import (
	"fmt"

	"teco/internal/cpusim"
	"teco/internal/gpusim"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// Engine simulates ZeRO-Offload training steps.
type Engine struct {
	GPU *gpusim.GPU
	CPU *cpusim.CPU
	// LinkBandwidth is the effective DMA bandwidth over PCIe 3.0 x16.
	LinkBandwidth float64
	// OverlapFraction is the share of backward time the coarse
	// (buffer-flush-granular) gradient transfers overlap with.
	OverlapFraction float64
	// ParamBufferBytes is the parameter transfer granularity (gradients
	// flush per layer chunk of the GPU's gradient schedule).
	ParamBufferBytes int64
}

// NewEngine returns an engine with the calibrated defaults.
func NewEngine() *Engine {
	return &Engine{
		GPU:              gpusim.V100(),
		CPU:              cpusim.Xeon6120(),
		LinkBandwidth:    modelzoo.BaselineLinkBandwidth(),
		OverlapFraction:  modelzoo.BaselineOverlapFraction,
		ParamBufferBytes: modelzoo.ParamBufferBytes,
	}
}

// Step simulates one training step and returns its critical-path breakdown.
// It panics on a non-positive LinkBandwidth or ParamBufferBytes.
func (e *Engine) Step(m modelzoo.Model, batch int) phases.StepResult {
	if !(e.LinkBandwidth > 0) {
		panic(fmt.Sprintf("zero: LinkBandwidth %v B/s, want > 0", e.LinkBandwidth))
	}
	if e.ParamBufferBytes <= 0 {
		panic(fmt.Sprintf("zero: ParamBufferBytes %d, want > 0", e.ParamBufferBytes))
	}

	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)
	bwdStart := fwd
	bwdEnd := fwd + bwd

	// Phase 2+3: backward produces gradients; the gradient buffer is
	// "periodically filled and flushed". Coarse granularity delays the
	// first flush: transfers effectively start only in the final
	// OverlapFraction of backward.
	//
	// Each direction is one FIFO DMA link, priced as the fold
	// free = max(ready, free) + bytes/bandwidth: all a fault-free cxl.Link
	// computes here, since its pending queue delays admission only (the
	// oldest queued completion never trails the link's drain point).
	delay := sim.Time(float64(bwd) * (1 - e.OverlapFraction))
	var up sim.Time // GPU -> CPU drain point
	for _, ch := range e.GPU.GradientSchedule(m, batch) {
		ready := bwdStart + delay + sim.Time(float64(ch.ReadyAt)*e.OverlapFraction)
		up = max(up, ready) + sim.DurationForBytes(ch.Bytes, e.LinkBandwidth)
	}
	gradDone := max(up, bwdEnd)
	gradExposed := gradDone - bwdEnd

	// Phase 4: clip on CPU once all gradients arrived.
	clip := e.CPU.ClipTime(m.Params)
	clipEnd := gradDone + clip

	// Phase 5a: full ADAM pass on CPU.
	adam := e.CPU.AdamTime(m.Params)
	adamEnd := clipEnd + adam

	// Phase 5b: double-buffered fill + transfer. Fill overlaps transfer
	// (two staging buffers), but nothing overlaps the ADAM pass — the
	// paper's "parameter transfer is largely exposed to the critical
	// path".
	remaining := m.ParamBytes()
	fillFree := [2]sim.Time{adamEnd, adamEnd}
	down := adamEnd // CPU -> GPU drain point
	slot := 0
	for remaining > 0 {
		b := e.ParamBufferBytes
		if b > remaining {
			b = remaining
		}
		remaining -= b
		fillDone := fillFree[slot] + e.CPU.FillTime(b)
		down = max(down, fillDone) + sim.DurationForBytes(b, e.LinkBandwidth)
		// The buffer slot frees when its transfer completes.
		fillFree[slot] = down
		slot = 1 - slot
	}
	paramExposed := down - adamEnd

	return phases.StepResult{
		Variant: phases.ZeroOffload,
		Breakdown: phases.Breakdown{
			Fwd:  fwd,
			Bwd:  bwd,
			Grad: gradExposed,
			Clip: clip,
			Adam: adam,
			Prm:  paramExposed,
		},
		ParamLinkBytes: m.ParamBytes(),
		GradLinkBytes:  m.GradBytes(),
	}
}
