package core

import (
	"testing"

	"teco/internal/modelzoo"
)

func TestEstimateTraining(t *testing.T) {
	m := modelzoo.GPT2()
	est := EstimateTraining(m, 4, 1000, 500)
	if est.Speedup <= 1.0 {
		t.Fatalf("speedup = %v", est.Speedup)
	}
	if est.TECOTotal >= est.BaselineTotal {
		t.Fatal("TECO must finish earlier")
	}
	// Earlier activation -> faster run.
	early := EstimateTraining(m, 4, 1000, 0)
	late := EstimateTraining(m, 4, 1000, 1000)
	if early.TECOTotal >= late.TECOTotal {
		t.Fatalf("earlier activation must be faster: %v vs %v", early.TECOTotal, late.TECOTotal)
	}
	// Never-activate equals all-CXL.
	never := EstimateTraining(m, 4, 1000, -1)
	if never.TECOTotal != late.TECOTotal {
		t.Fatal("act=-1 must equal act=steps")
	}
	if 1-early.TimeSavedFraction-float64(early.TECOTotal)/float64(early.BaselineTotal) > 1e-12 {
		t.Fatal("saved fraction definition")
	}
}

func TestEstimateTrainingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateTraining(modelzoo.GPT2(), 4, 0, 0)
}

func TestEstimateFullGraphIgnoresBatch(t *testing.T) {
	g := modelzoo.GCNII()
	a := EstimateTraining(g, 4, 100, 50)
	b := EstimateTraining(g, 64, 100, 50)
	if a.TECOTotal != b.TECOTotal {
		t.Fatal("full-graph estimate must ignore batch")
	}
}

// TestCostAnalysisNearPaper: §VIII-C — "7% of saving in training time leads
// to a reduction of roughly $900K in production cost in a year" for a
// 256-GPU fleet at p4de.24xlarge pricing.
func TestCostAnalysisNearPaper(t *testing.T) {
	c := DefaultCostModel()
	savings := c.AnnualSavingsUSD(0.07)
	if savings < 300_000 || savings > 1_200_000 {
		t.Fatalf("7%% saving = $%.0f/yr, paper estimates ~$900K", savings)
	}
	// Linear in the saved fraction.
	if 2*savings != c.AnnualSavingsUSD(0.14) {
		t.Fatal("savings must be linear")
	}
	// Zero-value model falls back to defaults.
	if (CostModel{}).AnnualSavingsUSD(0.07) != savings {
		t.Fatal("zero-value cost model must use defaults")
	}
}
