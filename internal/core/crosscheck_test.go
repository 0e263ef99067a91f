package core

import (
	"testing"

	"teco/internal/cpusim"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/gpusim"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/sim"
	"teco/internal/zero"
)

// TestEngineMatchesTraceReplay cross-validates the two halves of the
// methodology: the layer-granular flow engine (Step) against an explicit
// replay of the ADAM writeback schedule through the same link model (the
// paper's gem5-trace -> process.py path). The parameter-phase drain
// computed both ways must agree.
func TestEngineMatchesTraceReplay(t *testing.T) {
	for _, m := range []modelzoo.Model{modelzoo.GPT2(), modelzoo.BertLargeCased(), modelzoo.T5Large()} {
		for _, useDBA := range []bool{false, true} {
			e := MustEngine(Config{DBA: useDBA})
			r := e.Step(m, 4)

			// Replay the same ADAM writeback schedule chunk by chunk (the
			// engine's own granularity) over a fresh link.
			cpu := cpusim.Xeon6120()
			link := cxl.NewLink(sim.New(), e.LinkBandwidth, e.QueueCap)
			payloadPerLine := mem.LineSize
			var extra sim.Time
			if useDBA {
				payloadPerLine = dba.WordsPerLine * dba.DefaultDirtyBytes
				extra = dba.ModelledLatency
			}
			var finish sim.Time
			for _, c := range cpu.UpdateSchedule(m) {
				payload := c.Bytes * int64(payloadPerLine) / mem.LineSize
				_, done := link.Send(c.ReadyAt, int(payload), extra)
				if done > finish {
					finish = done
				}
			}
			adamEnd := cpu.AdamTime(m.Params)
			var exposed sim.Time
			if finish > adamEnd {
				exposed = finish - adamEnd
			}
			if r.Prm != exposed {
				t.Errorf("%s dba=%v: engine exposure %v != trace replay %v", m.Name, useDBA, r.Prm, exposed)
			}
		}
	}
}

// TestParamVolumeConservation: bytes on the link equal the model's
// parameter bytes exactly (halved under DBA) for every engine variant — no
// silent truncation anywhere in the flow decomposition.
func TestParamVolumeConservation(t *testing.T) {
	for _, m := range modelzoo.EvaluationModels() {
		b := 4
		if m.FullGraphOnly {
			b = 1
		}
		base := zero.NewEngine().Step(m, b)
		if base.ParamLinkBytes != m.ParamBytes() {
			t.Errorf("%s: baseline param bytes %d != %d", m.Name, base.ParamLinkBytes, m.ParamBytes())
		}
		red := MustEngine(Config{DBA: true}).Step(m, b)
		if red.ParamLinkBytes != m.ParamBytes()/2 {
			t.Errorf("%s: DBA param bytes %d != %d", m.Name, red.ParamLinkBytes, m.ParamBytes()/2)
		}
		if red.GradLinkBytes != m.GradBytes() {
			t.Errorf("%s: grad bytes %d != %d", m.Name, red.GradLinkBytes, m.GradBytes())
		}
	}
}

// TestStepMonotoneInBatch: more compute per step, longer steps — for every
// variant.
func TestStepMonotoneInBatch(t *testing.T) {
	m := modelzoo.BertLargeCased()
	for _, cfg := range []Config{{}, {DBA: true}, {Invalidation: true}} {
		e := MustEngine(cfg)
		prev := sim.Time(0)
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			tot := e.Step(m, b).Total()
			if tot <= prev {
				t.Fatalf("%v: total not monotone at batch %d", cfg.Variant(), b)
			}
			prev = tot
		}
	}
}

// TestGradExposureMatchesReplay cross-validates the gradient direction the
// same way: replaying the backward writeback schedule over a fresh link
// must produce the engine's exposed gradient time.
func TestGradExposureMatchesReplay(t *testing.T) {
	gpu := gpusim.V100()
	for _, m := range []modelzoo.Model{modelzoo.GPT2(), modelzoo.T5Large()} {
		for _, batch := range []int{4, 8} {
			e := MustEngine(Config{})
			r := e.Step(m, batch)

			link := cxl.NewLink(sim.New(), e.LinkBandwidth, e.QueueCap)
			bwdStart := gpu.ForwardTime(m, batch)
			bwdEnd := bwdStart + gpu.BackwardTime(m, batch)
			var finish sim.Time
			for _, ch := range gpu.GradientSchedule(m, batch) {
				_, done := link.Send(bwdStart+ch.ReadyAt, int(ch.Bytes), 0)
				if done > finish {
					finish = done
				}
			}
			var exposed sim.Time
			if finish > bwdEnd {
				exposed = finish - bwdEnd
			}
			if r.Grad != exposed {
				t.Errorf("%s b%d: engine grad exposure %v != replay %v", m.Name, batch, r.Grad, exposed)
			}
		}
	}
}
