package conformance

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/experiments"
)

// TestKernelTrainingWorkersBitIdentity pins the numeric core's strongest
// contract end-to-end: real training on the blocked kernels and the fused
// clip+ADAM+scan pass reproduces the seed golden BIT-identically, at every
// worker count. fig2 is the pinned experiment because it exposes the raw
// byte-change distributions of the parameter stream — a single rounding
// difference anywhere in forward, backward, clip, ADAM or the dirty-byte
// path moves its counts. NoMemo forces a fresh training run per worker
// count (no shared-run cache hits standing in for the computation).
func TestKernelTrainingWorkersBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig2 once per worker count")
	}
	if raceEnabled {
		t.Skip("covered by the non-race run; -race retunes nothing")
	}
	pinned, err := os.ReadFile(goldenPath("fig2"))
	if err != nil {
		t.Fatalf("missing golden for fig2 (run `make golden`): %v", err)
	}
	golden, err := Unmarshal(pinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			t.Parallel()
			check.Enable(t)
			tables, err := experiments.ByID("fig2", experiments.Options{
				Seed: GoldenSeed, Workers: w, NoMemo: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Marshal(tables)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(pinned, fresh) {
				return
			}
			// Byte inequality means a numeric drift somewhere in the
			// kernel/fused path; Diff localizes it.
			for _, diff := range Diff(golden, tables) {
				t.Error(diff)
			}
			if !t.Failed() {
				t.Error("fig2 output differs byte-wise from the pinned golden (formatting drift)")
			}
		})
	}
}
