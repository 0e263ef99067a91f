package realtrain

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// determinismConfigs is the table of trainer shapes the bit-identity
// harness covers: every hot path (ADAM, DBA merge + verify, FP16 rounding,
// byte-change scan, SDC CRC guards) and both proxy architectures.
func determinismConfigs(seed int64) []Config {
	base := Config{
		Steps: 40, PreSteps: 30, Hidden: 32, Seed: seed, SampleEvery: 5,
	}
	plain := base
	dbaOn := base
	dbaOn.DBA = true
	dbaOn.ActAfterSteps = 10
	fp16 := dbaOn
	fp16.FP16Compute = true
	guarded := dbaOn
	guarded.SDCChecks = true
	attn := base
	attn.Arch = "attention"
	attn.DBA = true
	attn.ActAfterSteps = 15
	return []Config{plain, dbaOn, fp16, guarded, attn}
}

func mustRunTrainer(t *testing.T, cfg Config) (*Trainer, Result) {
	t.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return tr, tr.Result()
}

// requireBitEqual compares two float32 tensors bit-wise (NaN-safe).
func requireBitEqual(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: word %d differs: %08x vs %08x",
				label, i, math.Float32bits(a[i]), math.Float32bits(b[i]))
		}
	}
}

// requireSameRun asserts two finished trainers are bit-identical in every
// observable: parameters, moments, loss trajectory, and the final Result
// (modulo the Workers scheduling knob, which is not a numeric input).
func requireSameRun(t *testing.T, label string, ref, got *Trainer, refRes, gotRes Result) {
	t.Helper()
	requireBitEqual(t, label+"/master", ref.MasterParams(), got.MasterParams())
	requireBitEqual(t, label+"/compute", ref.compute, got.compute)
	rm, rv := ref.ad.Moments()
	gm, gv := got.ad.Moments()
	requireBitEqual(t, label+"/adam.m", rm, gm)
	requireBitEqual(t, label+"/adam.v", rv, gv)
	if !reflect.DeepEqual(ref.samples, got.samples) {
		t.Fatalf("%s: sample trajectories diverge", label)
	}
	gotRes.Config.Workers = refRes.Config.Workers
	if !reflect.DeepEqual(refRes, gotRes) {
		t.Fatalf("%s: results diverge:\n ref %+v\n got %+v", label, refRes, gotRes)
	}
}

// TestTrainerParallelBitIdentical is the core determinism harness: for
// every config shape and seed, a run at workers 2 and 8 must be
// bit-identical to the serial run — tensors, moments, samples, Result.
func TestTrainerParallelBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for ci, base := range determinismConfigs(seed) {
			serial := base
			serial.Workers = 1
			refTr, refRes := mustRunTrainer(t, serial)
			for _, workers := range []int{2, 8} {
				cfg := base
				cfg.Workers = workers
				tr, res := mustRunTrainer(t, cfg)
				label := fmt.Sprintf("seed=%d cfg=%d workers=%d", seed, ci, workers)
				requireSameRun(t, label, refTr, tr, refRes, res)
			}
		}
	}
}

// TestPreStateSharingBitIdentical proves the memoization building block:
// fine-tuning from a shared PreState is bit-identical to a run whose
// pre-training executed inline, including across worker counts.
func TestPreStateSharingBitIdentical(t *testing.T) {
	base := Config{Steps: 30, PreSteps: 25, Hidden: 32, Seed: 9, SampleEvery: 5, DBA: true, ActAfterSteps: 8}
	refTr, refRes := mustRunTrainer(t, base)

	pre, err := Pretrain(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers = workers
		tr, err := NewTrainerFromPre(cfg, pre)
		if err != nil {
			t.Fatal(err)
		}
		for !tr.Done() {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		requireSameRun(t, fmt.Sprintf("prestate workers=%d", workers), refTr, tr, refRes, tr.Result())
	}

	// A pre-state must refuse a config whose pre-phase differs.
	bad := base
	bad.PreSteps = 26
	if _, err := NewTrainerFromPre(bad, pre); err == nil {
		t.Fatal("pre-state accepted a mismatched pre-phase config")
	}
}

// TestSnapshotRestoreAcrossWorkerCounts checks the crash/restore story
// under the parallel trainer: a snapshot written by a parallel run restores
// into a serial run (and vice versa) and finishes bit-identical to an
// uninterrupted serial run.
func TestSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	base := Config{Steps: 30, PreSteps: 20, Hidden: 32, Seed: 5, SampleEvery: 5,
		DBA: true, ActAfterSteps: 6, SDCChecks: true}
	refTr, refRes := mustRunTrainer(t, base)

	for _, wc := range []struct{ snapW, resumeW int }{{8, 1}, {1, 8}, {8, 2}} {
		cfg := base
		cfg.Workers = wc.snapW
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tr.StepCount() < 13 {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		snap := tr.Snapshot()

		resume := base
		resume.Workers = wc.resumeW
		rt, err := NewTrainerFromSnapshot(resume, snap)
		if err != nil {
			t.Fatalf("snapW=%d resumeW=%d: %v", wc.snapW, wc.resumeW, err)
		}
		for !rt.Done() {
			if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		label := fmt.Sprintf("snapW=%d resumeW=%d", wc.snapW, wc.resumeW)
		requireSameRun(t, label, refTr, rt, refRes, rt.Result())
	}
}
