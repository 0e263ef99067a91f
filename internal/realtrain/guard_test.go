package realtrain

import (
	"errors"
	"fmt"
	"testing"

	"teco/internal/optim"
	"teco/internal/parallel"
)

// guardPositions returns the first and last word of the first, middle and
// last fixed-quantum chunk of an n-word tensor (deduplicated for short
// tensors) — every boundary a per-chunk guard could get wrong.
func guardPositions(n int) []int {
	nc := parallel.Chunks(n)
	seen := map[int]bool{}
	var out []int
	for _, c := range []int{0, nc / 2, nc - 1} {
		lo, hi := parallel.ChunkBounds(c, n)
		for _, i := range []int{lo, hi - 1} {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

func wantChecksumMismatch(t *testing.T, err error, tensor, what string) {
	t.Helper()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: got %v, want CorruptionError", what, err)
	}
	if ce.Tensor != tensor || ce.Index != -1 || ce.NonFinite {
		t.Fatalf("%s: detection %+v, want checksum mismatch on %s", what, *ce, tensor)
	}
}

// TestGuardDetectionMatrix: a bit flipped in any resident tensor, at either
// end of the first, middle or last guard chunk, is detected at the next
// Step with that tensor named, at every worker count. The failing Step runs
// no further than the entry guard, so undoing the flip leaves a trainer
// that steps on — which is what lets one trainer walk the whole matrix.
func TestGuardDetectionMatrix(t *testing.T) {
	cfg := fastCfg(21)
	cfg.SDCChecks = true
	pre, err := Pretrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		tr, err := NewTrainerFromPre(cfg, pre)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, tr, 25) // past DBA activation: compute differs from master
		n := len(tr.MasterParams())
		if n%16384 == 0 {
			t.Fatalf("model has %d words: want a ragged last chunk here", n)
		}
		for _, tensor := range guardTensors {
			for _, idx := range guardPositions(n) {
				for _, mask := range []uint32{1, 1 << 31} {
					what := fmt.Sprintf("workers=%d %s[%d]^%#x", workers, tensor, idx, mask)
					if err := tr.CorruptWord(tensor, idx, mask); err != nil {
						t.Fatal(err)
					}
					wantChecksumMismatch(t, tr.Step(), tensor, what)
					if err := tr.CorruptWord(tensor, idx, mask); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Several tensors hit at once: the report follows the fixed tensor
		// order, not chunk order or scheduling.
		for _, tensor := range []string{"adam.v", "compute"} {
			if err := tr.CorruptWord(tensor, n-1, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CorruptWord("adam.m", 0, 1); err != nil {
			t.Fatal(err)
		}
		wantChecksumMismatch(t, tr.Step(), "compute", "multi-tensor corruption")
		if err := tr.CorruptWord("compute", n-1, 1); err != nil {
			t.Fatal(err)
		}
		wantChecksumMismatch(t, tr.Step(), "adam.m", "multi-tensor corruption")
		for _, fix := range []struct {
			tensor string
			idx    int
		}{{"adam.m", 0}, {"adam.v", n - 1}} {
			if err := tr.CorruptWord(fix.tensor, fix.idx, 1); err != nil {
				t.Fatal(err)
			}
		}
		runTo(t, tr, 30)
	}
}

// TestGuardChunkAlignedLengths drives the guard record directly over tensor
// lengths that are and are not multiples of the chunk quantum (the real
// models' parameter counts are all ragged): every boundary word of every
// tensor is caught, and re-recording after a corruption masks it — the
// "corruption inside a legitimate write window" the NaN-scan tests rely on.
func TestGuardChunkAlignedLengths(t *testing.T) {
	for _, n := range []int{1, 100, 16384, 3 * 16384, 3*16384 + 123} {
		for _, workers := range []int{1, 2, 8} {
			tr := &Trainer{
				cfg:     Config{SDCChecks: true, Workers: workers},
				master:  make([]float32, n),
				compute: make([]float32, n),
				ad:      optim.MustAdam(n, optim.AdamConfig{LR: 1e-5}),
				guard:   newSDCGuard(n),
			}
			for i := range tr.master {
				tr.master[i] = float32(i)
			}
			if err := tr.verifySums(); err != nil {
				t.Fatalf("n=%d: unrecorded guard must pass, got %v", n, err)
			}
			tr.recordSums()
			for _, tensor := range guardTensors {
				for _, idx := range guardPositions(n) {
					what := fmt.Sprintf("n=%d workers=%d %s[%d]", n, workers, tensor, idx)
					if err := tr.CorruptWord(tensor, idx, 1<<7); err != nil {
						t.Fatal(err)
					}
					wantChecksumMismatch(t, tr.verifySums(), tensor, what)
					tr.recordSums()
					if err := tr.verifySums(); err != nil {
						t.Fatalf("%s: re-recorded sums must mask the flip, got %v", what, err)
					}
				}
			}
		}
	}
}
