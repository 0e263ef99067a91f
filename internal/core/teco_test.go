package core

import (
	"testing"

	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/zero"
)

func TestVariantMapping(t *testing.T) {
	if (Config{}).Variant() != phases.TECOCXL {
		t.Fatal("default variant")
	}
	if (Config{DBA: true}).Variant() != phases.TECOReduction {
		t.Fatal("DBA variant")
	}
	if (Config{Invalidation: true}).Variant() != phases.TECOInvalidation {
		t.Fatal("invalidation variant")
	}
}

func TestNewEngineDefaultsAndValidation(t *testing.T) {
	e, err := NewEngine(Config{DBA: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Config.DirtyBytes != 2 {
		t.Fatalf("default dirty bytes = %d", e.Config.DirtyBytes)
	}
	if _, err := NewEngine(Config{DirtyBytes: 9}); err == nil {
		t.Fatal("expected error for dirty_bytes > 4")
	}
	if _, err := NewEngine(Config{Faults: cxl.FaultConfig{BER: 2}}); err == nil {
		t.Fatal("expected error for BER outside [0,1)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustEngine should panic where NewEngine errors")
		}
	}()
	MustEngine(Config{DirtyBytes: 9})
}

// TestSpeedupShape asserts the headline result per model and batch: both
// TECO variants beat ZeRO-Offload, TECO-Reduction beats TECO-CXL, and
// speedups land in the paper's neighbourhood (Table IV: 1.08x-1.82x).
func TestSpeedupShape(t *testing.T) {
	base := zero.NewEngine()
	tecoCXL := MustEngine(Config{})
	tecoRed := MustEngine(Config{DBA: true})
	for _, m := range modelzoo.EvaluationModels() {
		batches := []int{4, 8, 16}
		if m.FullGraphOnly {
			batches = []int{1}
		}
		for _, b := range batches {
			rb := base.Step(m, b)
			rc := tecoCXL.Step(m, b)
			rr := tecoRed.Step(m, b)
			sc := rc.Speedup(rb)
			sr := rr.Speedup(rb)
			if sc <= 1.0 {
				t.Errorf("%s b%d: TECO-CXL speedup %.2f <= 1", m.Name, b, sc)
			}
			if sr < sc {
				t.Errorf("%s b%d: TECO-Reduction %.2f < TECO-CXL %.2f", m.Name, b, sr, sc)
			}
			if sr > 2.2 {
				t.Errorf("%s b%d: speedup %.2f implausibly high", m.Name, b, sr)
			}
		}
	}
}

// TestBertSpeedupNearPaper pins the calibrated headline numbers for
// Bert-large (paper Table IV: 1.6x at b4, 1.62x at b8, 1.41x at b16).
func TestBertSpeedupNearPaper(t *testing.T) {
	base := zero.NewEngine()
	red := MustEngine(Config{DBA: true})
	m := modelzoo.BertLargeCased()
	paper := map[int]float64{4: 1.60, 8: 1.62, 16: 1.41}
	for b, want := range paper {
		got := red.Step(m, b).Speedup(base.Step(m, b))
		if got < want-0.35 || got > want+0.35 {
			t.Errorf("b%d speedup %.2f, paper %.2f", b, got, want)
		}
	}
}

// TestAlbertLowestSpeedup: "Albert-xxlarge-v1 shows less speedup than the
// other models" because its computation dominates.
func TestAlbertLowestSpeedup(t *testing.T) {
	base := zero.NewEngine()
	red := MustEngine(Config{DBA: true})
	albert := red.Step(modelzoo.AlbertXXLarge(), 4).Speedup(base.Step(modelzoo.AlbertXXLarge(), 4))
	for _, m := range []modelzoo.Model{modelzoo.GPT2(), modelzoo.BertLargeCased(), modelzoo.T5Large()} {
		other := red.Step(m, 4).Speedup(base.Step(m, 4))
		if albert >= other {
			t.Errorf("Albert speedup %.2f >= %s %.2f", albert, m.Name, other)
		}
	}
}

// TestSpeedupDecreasesWithBatch: Table IV's trend — bigger batches leave
// less communication to hide.
func TestSpeedupDecreasesWithBatch(t *testing.T) {
	base := zero.NewEngine()
	red := MustEngine(Config{DBA: true})
	for _, m := range []modelzoo.Model{modelzoo.GPT2(), modelzoo.BertLargeCased()} {
		s4 := red.Step(m, 4).Speedup(base.Step(m, 4))
		s16 := red.Step(m, 16).Speedup(base.Step(m, 16))
		if s16 >= s4 {
			t.Errorf("%s: speedup did not decrease with batch (%.2f -> %.2f)", m.Name, s4, s16)
		}
	}
}

// TestDBAHalvesParamVolume: §VIII-C — "the volume is reduced by 50% after
// applying DBA" for parameters, and gradients are untouched.
func TestDBAHalvesParamVolume(t *testing.T) {
	m := modelzoo.BertLargeCased()
	cxlOnly := MustEngine(Config{}).Step(m, 4)
	red := MustEngine(Config{DBA: true}).Step(m, 4)
	if red.ParamLinkBytes*2 != cxlOnly.ParamLinkBytes {
		t.Fatalf("DBA param volume %d, want half of %d", red.ParamLinkBytes, cxlOnly.ParamLinkBytes)
	}
	if red.GradLinkBytes != cxlOnly.GradLinkBytes {
		t.Fatal("gradients must not be DBA'd (no common byte-update pattern)")
	}
}

// TestDBAFullyHidesParamTransfer: Fig 12 — "when applying DBA, the
// [parameter] transfer time is completely hidden" (drain tail only).
func TestDBAFullyHidesParamTransfer(t *testing.T) {
	m := modelzoo.BertLargeCased()
	red := MustEngine(Config{DBA: true}).Step(m, 4)
	// Exposure should be only the final-chunk drain, < 5% of the full
	// transfer time.
	full := float64(m.ParamBytes()/2) / modelzoo.CXLLinkBandwidth()
	if red.Prm.Seconds() > 0.10*full {
		t.Fatalf("DBA param exposure %v too large", red.Prm)
	}
}

// TestGradHiddenAtBatch8: Fig 12 — "for the gradients, the transfer time is
// completely hidden by TECO when the batch size is 8"; at batch 4 it is
// exposed but hidden by at least ~69%.
func TestGradHiddenAtBatch8(t *testing.T) {
	base := zero.NewEngine()
	tecoE := MustEngine(Config{DBA: true})
	m := modelzoo.T5Large() // Fig 12 uses T5-large
	r8 := tecoE.Step(m, 8)
	fullXfer := float64(m.GradBytes()) / modelzoo.CXLLinkBandwidth()
	if r8.Grad.Seconds() > 0.05*fullXfer {
		t.Fatalf("b8 grad exposure %v, want ~fully hidden", r8.Grad)
	}
	r4 := tecoE.Step(m, 4)
	b4base := base.Step(m, 4)
	hidden := 1 - float64(r4.Grad)/float64(b4base.Grad+1)
	if hidden < 0.5 {
		t.Fatalf("b4 gradient hiding = %.2f, want most of it hidden", hidden)
	}
}

// TestInvalidationAblation: §IV-A2 — on-demand transfers increase training
// time substantially (paper: +56.6% on average) relative to update mode.
func TestInvalidationAblation(t *testing.T) {
	m := modelzoo.BertLargeCased()
	upd := MustEngine(Config{}).Step(m, 4)
	inv := MustEngine(Config{Invalidation: true}).Step(m, 4)
	ratio := float64(inv.Total())/float64(upd.Total()) - 1
	if ratio < 0.25 || ratio > 1.2 {
		t.Fatalf("invalidation penalty = %.1f%%, want a large penalty (~56%%)", 100*ratio)
	}
	// Invalidation messages add link volume.
	if inv.ParamLinkBytes <= upd.ParamLinkBytes {
		t.Fatal("invalidation mode must move more bytes (messages + data)")
	}
}

// TestCommReductionNearPaper: the headline "TECO reduces communication
// overhead by 93.7% on average (up to 100%)".
func TestCommReductionNearPaper(t *testing.T) {
	base := zero.NewEngine()
	red := MustEngine(Config{DBA: true})
	var sum float64
	var n int
	for _, m := range modelzoo.EvaluationModels() {
		b := 4
		if m.FullGraphOnly {
			b = 1
		}
		r := red.Step(m, b).CommReduction(base.Step(m, b))
		if r < 0.5 {
			t.Errorf("%s: comm reduction %.2f too small", m.Name, r)
		}
		sum += r
		n++
	}
	if avg := sum / float64(n); avg < 0.7 {
		t.Fatalf("average comm reduction %.2f, paper reports 93.7%%", avg)
	}
}

// TestModelSizeSensitivity: Table VI — TECO keeps winning across GPT-2
// scales, with the 11B model showing the smallest gain because compute
// dominates (paper: 63.4% of total).
func TestModelSizeSensitivity(t *testing.T) {
	base := zero.NewEngine()
	red := MustEngine(Config{DBA: true})
	speedups := map[string]float64{}
	for _, m := range modelzoo.SensitivityModels() {
		s := red.Step(m, 4).Speedup(base.Step(m, 4))
		speedups[m.Name] = s
		if s <= 1.0 {
			t.Errorf("%s: no speedup (%.2f)", m.Name, s)
		}
	}
	for name, s := range speedups {
		if name == "GPT2-11B" {
			continue
		}
		if speedups["GPT2-11B"] >= s {
			t.Errorf("11B speedup %.2f should be the smallest (vs %s %.2f)",
				speedups["GPT2-11B"], name, s)
		}
	}
}

// TestDirtyBytesSweep: fewer dirty bytes -> less volume, never slower.
func TestDirtyBytesSweep(t *testing.T) {
	m := modelzoo.GPT2()
	var prevVol int64 = 1 << 62
	var prevTotal = int64(1) << 62
	for _, db := range []int{4, 3, 2, 1} {
		r := MustEngine(Config{DBA: true, DirtyBytes: db}).Step(m, 4)
		if r.ParamLinkBytes >= prevVol {
			t.Fatalf("dirty_bytes=%d volume %d did not shrink", db, r.ParamLinkBytes)
		}
		if int64(r.Total()) > prevTotal {
			t.Fatalf("dirty_bytes=%d got slower", db)
		}
		prevVol = r.ParamLinkBytes
		prevTotal = int64(r.Total())
	}
}

var stepSink phases.StepResult

// BenchmarkTECOStep times one sweep of the three TECO systems over the
// Table III grid (every evaluation model at batch 4, 8 and 16): the
// timing-plane work behind the paper tables. A sweep allocates nothing.
func BenchmarkTECOStep(b *testing.B) {
	models := modelzoo.EvaluationModels()
	engines := []*Engine{MustEngine(Config{}), MustEngine(Config{DBA: true}), MustEngine(Config{Invalidation: true})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range engines {
			for _, m := range models {
				for _, batch := range []int{4, 8, 16} {
					stepSink = e.Step(m, batch)
				}
			}
		}
	}
}
