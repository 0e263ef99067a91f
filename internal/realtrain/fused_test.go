package realtrain

import (
	"errors"
	"math"
	"testing"

	"teco/internal/optim"
)

// TestFusedNaNIndexMatchesStandaloneScan pins the fused epilogue's index
// semantics: when ADAM propagates corruption into several master words in
// the same step, the CorruptionError must carry the FIRST offending index
// — exactly what the standalone optim.FirstNonFiniteWorkers scan reports —
// because the per-chunk first hits fold in ascending chunk order.
func TestFusedNaNIndexMatchesStandaloneScan(t *testing.T) {
	cfg := fastCfg(29)
	cfg.SDCChecks = true
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 5)
	// Poison the second moment at two separated indices; the next update
	// turns both parameters non-finite. Recompute checksums as if the
	// corruption happened inside a legitimate write window, so only the
	// post-step NaN scan can catch it.
	_, v := tr.ad.Moments()
	for _, idx := range []int{911, 13} {
		mask := math.Float32bits(v[idx]) ^ 0x7FC00000
		if err := tr.CorruptWord("adam.v", idx, mask); err != nil {
			t.Fatal(err)
		}
	}
	tr.recordSums()
	err = tr.Step()
	var ce *CorruptionError
	if !errors.As(err, &ce) || !ce.NonFinite || ce.Tensor != "master" {
		t.Fatalf("Step() = %v, want non-finite CorruptionError on master", err)
	}
	// The master copy now holds the propagated NaNs (the step aborted
	// after the fused pass); the standalone scan over it defines the
	// expected index.
	want := optim.FirstNonFiniteWorkers(tr.MasterParams(), 1)
	if want < 0 {
		t.Fatal("master has no non-finite word after a NaN detection")
	}
	if ce.Index != want {
		t.Fatalf("fused scan reported index %d, standalone scan %d", ce.Index, want)
	}
	if ce.Index != 13 {
		t.Fatalf("first poisoned index is 13, detection reported %d", ce.Index)
	}
}
