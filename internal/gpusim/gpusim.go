// Package gpusim is the Accel-Sim stand-in: a calibrated V100 timing model
// producing per-phase kernel times and the schedule on which backward
// propagation emits gradient cache lines (the writeback stream the paper's
// modified Accel-Sim transfers over CXL, §VIII-A).
package gpusim

import (
	"fmt"

	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// GPU is a V100-class timing model.
type GPU struct {
	// EffectiveFLOPS is sustained training throughput.
	EffectiveFLOPS float64
	// LaunchOverheadPerLayer is the fixed per-layer cost per step.
	LaunchOverheadPerLayer sim.Time
	// BackwardFraction is backward's share of fwd+bwd time.
	BackwardFraction float64
}

// V100 returns the calibrated default model.
func V100() *GPU {
	return &GPU{
		EffectiveFLOPS:         modelzoo.GPUEffectiveFLOPS,
		LaunchOverheadPerLayer: sim.FromSeconds(modelzoo.GPULaunchOverheadPerLayerMs / 1e3),
		BackwardFraction:       modelzoo.BackwardFraction,
	}
}

// StepComputeTime returns total fwd+bwd time for one training step.
func (g *GPU) StepComputeTime(m modelzoo.Model, batch int) sim.Time {
	if batch <= 0 && !m.FullGraphOnly {
		panic(fmt.Sprintf("gpusim: batch %d", batch))
	}
	flopsTime := sim.FromSeconds(m.StepFLOPs(batch) / g.EffectiveFLOPS)
	fixed := sim.Time(int64(m.Layers)) * g.LaunchOverheadPerLayer
	return flopsTime + fixed
}

// ForwardTime returns the forward-pass time.
func (g *GPU) ForwardTime(m modelzoo.Model, batch int) sim.Time {
	fwd, _ := g.Gradients(m, batch)
	return fwd
}

// BackwardTime returns the backward-pass time.
func (g *GPU) BackwardTime(m modelzoo.Model, batch int) sim.Time {
	_, grads := g.Gradients(m, batch)
	return grads.Span
}

// Gradients returns the forward-pass time and backward's gradient schedule,
// whose Span is the backward-pass time: one chunk per layer, layer L-1
// first (backward walks the model in reverse, so chunk i is layer L-1-i),
// each an equal parameter share at an equally spaced point of the pass.
func (g *GPU) Gradients(m modelzoo.Model, batch int) (fwd sim.Time, grads sim.Schedule) {
	total := g.StepComputeTime(m, batch)
	bwd := sim.Time(float64(total) * g.BackwardFraction)
	return total - bwd, sim.NewSchedule(bwd, m.GradBytes(), m.Layers)
}

// GradChunk is a block of gradients becoming available during backward.
type GradChunk struct {
	// ReadyAt is the offset from the start of backward at which the
	// chunk's last gradient is produced.
	ReadyAt sim.Time
	// Bytes is the chunk's transfer volume.
	Bytes int64
	// Layer is the producing layer (layers finish in reverse order).
	Layer int
}

// GradientSchedule returns the chunks of the Gradients schedule as a slice.
// The final chunk lands exactly at BackwardTime.
func (g *GPU) GradientSchedule(m modelzoo.Model, batch int) []GradChunk {
	_, grads := g.Gradients(m, batch)
	chunks := make([]GradChunk, grads.N)
	for i := range chunks {
		at, b := grads.Chunk(i)
		chunks[i] = GradChunk{ReadyAt: at, Bytes: b, Layer: grads.N - 1 - i}
	}
	return chunks
}
