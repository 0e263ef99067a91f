package zero

import (
	"testing"

	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// replayStep is the link-level oracle for Step: the same step with both
// transfer phases pushed through real cxl.Links of the given pending-queue
// depth, gradients up and double-buffered parameter chunks down.
func replayStep(e *Engine, m modelzoo.Model, batch, queueCap int) phases.StepResult {
	up := cxl.NewLink(nil, e.LinkBandwidth, queueCap)
	down := cxl.NewLink(nil, e.LinkBandwidth, queueCap)

	fwd := e.GPU.ForwardTime(m, batch)
	bwd := e.GPU.BackwardTime(m, batch)
	bwdEnd := fwd + bwd
	delay := sim.Time(float64(bwd) * (1 - e.OverlapFraction))
	for _, ch := range e.GPU.GradientSchedule(m, batch) {
		ready := fwd + delay + sim.Time(float64(ch.ReadyAt)*e.OverlapFraction)
		up.SendFlow(ready, ch.Bytes, 0, 0, false)
	}
	gradDone := up.Fence(bwdEnd)
	clip := e.CPU.ClipTime(m.Params)
	adam := e.CPU.AdamTime(m.Params)
	adamEnd := gradDone + clip + adam

	fillFree := [2]sim.Time{adamEnd, adamEnd}
	paramDone := adamEnd
	slot := 0
	for remaining := m.ParamBytes(); remaining > 0; {
		b := min(e.ParamBufferBytes, remaining)
		remaining -= b
		done := down.SendFlow(fillFree[slot]+e.CPU.FillTime(b), b, 0, 0, false).Done
		fillFree[slot] = done
		slot = 1 - slot
		paramDone = done
	}

	return phases.StepResult{
		Variant: phases.ZeroOffload,
		Breakdown: phases.Breakdown{
			Fwd: fwd, Bwd: bwd, Grad: gradDone - bwdEnd,
			Clip: clip, Adam: adam, Prm: paramDone - adamEnd,
		},
		ParamLinkBytes: m.ParamBytes(),
		GradLinkBytes:  m.GradBytes(),
	}
}

// TestStepMatchesLinkReplay pins Step's closed-form FIFO fold to the link
// model it replaces, exactly, over every model, batch, bandwidth, parameter
// buffer and overlap the experiments sweep and then some. The deep queue
// holds one entry more than the replay has flows on either link, so it
// never back-pressures, which is what the baseline's 2²⁰-entry queue stood
// for; the 2-entry queue back-pressures nearly every send, which must move
// admission times only, never a completion.
func TestStepMatchesLinkReplay(t *testing.T) {
	models := append(modelzoo.EvaluationModels(), modelzoo.SensitivityModels()[1:]...)
	models = append(models, modelzoo.BertBaseUncased())
	bw := modelzoo.BaselineLinkBandwidth()
	for _, m := range models {
		for _, batch := range []int{1, 4, 8, 16, 20, 64} {
			for _, bps := range []float64{bw / 2, bw, modelzoo.CXLLinkBandwidth(), 2 * bw} {
				for _, buf := range []int64{1 << 20, modelzoo.ParamBufferBytes, 256 << 20} {
					for _, overlap := range []float64{0.25, 0.5, 1} {
						e := NewEngine()
						e.LinkBandwidth, e.ParamBufferBytes, e.OverlapFraction = bps, buf, overlap
						got := e.Step(m, batch)
						chunks := int((m.ParamBytes() + buf - 1) / buf)
						deep := max(len(e.GPU.GradientSchedule(m, batch)), chunks) + 1
						for _, q := range []int{deep, 2} {
							if want := replayStep(e, m, batch, q); got != want {
								t.Fatalf("%s b%d %.3gB/s buf=%d overlap=%v queue=%d:\n fold   %+v\n replay %+v",
									m.Name, batch, bps, buf, overlap, q, got, want)
							}
						}
					}
				}
			}
		}
	}
}
