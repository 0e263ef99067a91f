package zero

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"teco/internal/modelzoo"
	"teco/internal/phases"
)

func TestStepBreakdownConsistency(t *testing.T) {
	e := NewEngine()
	for _, m := range modelzoo.EvaluationModels() {
		r := e.Step(m, 4)
		if r.Total() <= 0 {
			t.Fatalf("%s: non-positive total", m.Name)
		}
		if r.Fwd <= 0 || r.Bwd <= 0 || r.Clip <= 0 || r.Adam <= 0 {
			t.Fatalf("%s: empty phase in %v", m.Name, r.Breakdown)
		}
		if r.Grad < 0 || r.Prm < 0 {
			t.Fatalf("%s: negative exposure", m.Name)
		}
		if r.ParamLinkBytes != m.ParamBytes() || r.GradLinkBytes != m.GradBytes() {
			t.Fatalf("%s: link volumes wrong", m.Name)
		}
	}
}

// TestTableICalibration reproduces Table I: communication exposed on the
// critical path as a fraction of training time for Bert-large-cased.
// Paper: batch 4 -> 42.24%, 8 -> 37.87%, 16 -> 28.65%, 20 -> 25.95%.
// We assert the measured shape: the fractions are large, decrease
// monotonically with batch size, and land near the paper's values.
func TestTableICalibration(t *testing.T) {
	e := NewEngine()
	m := modelzoo.BertLargeCased()
	paper := map[int]float64{4: 0.4224, 8: 0.3787, 16: 0.2865, 20: 0.2595}
	var prev float64 = 1
	for _, b := range []int{4, 8, 16, 20} {
		r := e.Step(m, b)
		frac := r.CommFraction()
		if frac >= prev {
			t.Fatalf("batch %d: fraction %.3f did not decrease", b, frac)
		}
		prev = frac
		if diff := frac - paper[b]; diff < -0.12 || diff > 0.12 {
			t.Fatalf("batch %d: comm fraction %.3f too far from paper %.3f", b, frac, paper[b])
		}
	}
}

// TestParamTransferLargelyExposed: the paper's diagnosis — the parameter
// transfer is almost fully on the critical path in ZeRO-Offload.
func TestParamTransferLargelyExposed(t *testing.T) {
	e := NewEngine()
	m := modelzoo.BertLargeCased()
	r := e.Step(m, 4)
	fullXfer := float64(m.ParamBytes()) / e.LinkBandwidth
	exposed := r.Prm.Seconds()
	if exposed < 0.9*fullXfer {
		t.Fatalf("param exposure %.1fms < 90%% of full transfer %.1fms", exposed*1e3, fullXfer*1e3)
	}
}

// TestGradExposureShrinksWithBatch: more backward time hides more of the
// gradient transfer.
func TestGradExposureShrinksWithBatch(t *testing.T) {
	e := NewEngine()
	m := modelzoo.BertLargeCased()
	r4 := e.Step(m, 4)
	r16 := e.Step(m, 16)
	if r16.Grad >= r4.Grad {
		t.Fatalf("grad exposure did not shrink: b4=%v b16=%v", r4.Grad, r16.Grad)
	}
}

func TestOverlapFractionEffect(t *testing.T) {
	m := modelzoo.BertLargeCased()
	coarse := NewEngine()
	coarse.OverlapFraction = 0.25
	fine := NewEngine()
	fine.OverlapFraction = 1.0
	rc := coarse.Step(m, 8)
	rf := fine.Step(m, 8)
	if rf.Grad >= rc.Grad {
		t.Fatalf("finer overlap must expose less gradient time: %v vs %v", rf.Grad, rc.Grad)
	}
}

func TestGCNIIStep(t *testing.T) {
	e := NewEngine()
	g := modelzoo.GCNII()
	r1 := e.Step(g, 1)
	r2 := e.Step(g, 64)
	if r1.Total() != r2.Total() {
		t.Fatal("full-graph model must ignore batch")
	}
}

func TestSmallParamBufferStillCompletes(t *testing.T) {
	e := NewEngine()
	e.ParamBufferBytes = 1 << 20
	m := modelzoo.GPT2()
	r := e.Step(m, 4)
	if r.Prm <= 0 {
		t.Fatal("param phase must take time")
	}
}

// TestStepRejectsBadConfig: a non-positive parameter buffer would never
// drain the parameter phase, and a non-positive bandwidth has no price, so
// Step panics naming the field instead of looping or guessing a default.
func TestStepRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Engine)
	}{
		{"ParamBufferBytes", func(e *Engine) { e.ParamBufferBytes = 0 }},
		{"ParamBufferBytes", func(e *Engine) { e.ParamBufferBytes = -1 }},
		{"LinkBandwidth", func(e *Engine) { e.LinkBandwidth = 0 }},
		{"LinkBandwidth", func(e *Engine) { e.LinkBandwidth = -16e9 }},
		{"LinkBandwidth", func(e *Engine) { e.LinkBandwidth = math.NaN() }},
	} {
		e := NewEngine()
		c.set(e)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.field) {
					t.Errorf("panic %q does not name %s", msg, c.field)
				}
			}()
			e.Step(modelzoo.GPT2(), 4)
		}()
	}
}

// TestStepAllocs: a step allocates only the gradient schedule. The link
// rings it used to build cost 16 MB per call.
func TestStepAllocs(t *testing.T) {
	e := NewEngine()
	m := modelzoo.BertLargeCased()
	if n := testing.AllocsPerRun(100, func() { e.Step(m, 4) }); n > 1 {
		t.Fatalf("Step allocates %v times, want <= 1", n)
	}
}

var stepSink phases.StepResult

func BenchmarkBaselineStep(b *testing.B) {
	e := NewEngine()
	models := modelzoo.EvaluationModels()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stepSink = e.Step(models[i%len(models)], 4)
	}
}
