package realtrain

import (
	"errors"
	"math"
	"testing"

	"teco/internal/checkpoint"
)

// fastCfg keeps resume tests quick: short pre-training, short run, DBA on
// so the snapshot carries real staleness and controller state.
func fastCfg(seed int64) Config {
	return Config{Steps: 60, PreSteps: 40, Seed: seed, DBA: true, ActAfterSteps: 20, SampleEvery: 5}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func runTo(t *testing.T, tr *Trainer, step int) {
	t.Helper()
	for tr.StepCount() < step {
		if err := tr.Step(); err != nil {
			t.Fatalf("step %d: %v", tr.StepCount(), err)
		}
	}
}

// The acceptance criterion at trainer level: a run snapshotted at an
// arbitrary step and restored into a fresh trainer finishes with
// bit-identical parameters, ADAM moments, compute copy, and loss
// trajectory.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, at := range []int{1, 17, 35, 59} {
		cfg := fastCfg(5)
		ref, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, ref, at)
		snap := ref.Snapshot()
		runTo(t, ref, cfg.Steps)

		res, err := NewTrainerFromSnapshot(cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, res, cfg.Steps)

		if !bitsEqual(ref.MasterParams(), res.MasterParams()) {
			t.Fatalf("snapshot at %d: master params diverged", at)
		}
		if !bitsEqual(ref.compute, res.compute) {
			t.Fatalf("snapshot at %d: compute copy diverged", at)
		}
		rm, rv := ref.ad.Moments()
		sm, sv := res.ad.Moments()
		if !bitsEqual(rm, sm) || !bitsEqual(rv, sv) {
			t.Fatalf("snapshot at %d: ADAM moments diverged", at)
		}
		a, b := ref.Result(), res.Result()
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("snapshot at %d: %d vs %d samples", at, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("snapshot at %d: sample %d diverged: %+v vs %+v", at, i, a.Samples[i], b.Samples[i])
			}
		}
		if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc || a.DivergedWords != b.DivergedWords {
			t.Fatalf("snapshot at %d: final metrics diverged", at)
		}
	}
}

// Snapshot round trip through the wire format must also be bit-exact.
func TestSnapshotWireRoundTripResume(t *testing.T) {
	cfg := fastCfg(9)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 30)
	snap := tr.Snapshot()
	wire := snap.Encode()
	runTo(t, tr, cfg.Steps)

	decoded, err := checkpoint.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewTrainerFromSnapshot(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, res, cfg.Steps)
	if !bitsEqual(tr.MasterParams(), res.MasterParams()) {
		t.Fatal("wire round trip diverged")
	}
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := fastCfg(3)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 5)
	snap := tr.Snapshot()

	other := cfg
	other.FineLR = 5e-5
	if _, err := NewTrainerFromSnapshot(other, snap); err == nil {
		t.Fatal("restore into different hyperparameters accepted")
	}
	bad := *snap
	bad.Params = snap.Params[:10]
	goodTag := bad.ConfigTag
	bad.ConfigTag = goodTag
	if _, err := NewTrainerFromSnapshot(cfg, &bad); err == nil {
		t.Fatal("restore of truncated tensor accepted")
	}
}

// SDC guards: corrupting any resident tensor between steps is detected at
// the next step boundary; a NaN planted in a moment vector is caught by
// the post-ADAM scan before it can spread further than one step.
func TestSDCGuardsDetectCorruption(t *testing.T) {
	for _, tensorName := range []string{"master", "compute", "adam.m", "adam.v"} {
		cfg := fastCfg(21)
		cfg.SDCChecks = true
		tr, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, tr, 10)
		if err := tr.CorruptWord(tensorName, 3, 1<<30); err != nil {
			t.Fatal(err)
		}
		err = tr.Step()
		if !IsCorruption(err) {
			t.Fatalf("corrupting %s: Step() = %v, want CorruptionError", tensorName, err)
		}
	}
}

func TestNaNScanCatchesPoisonedMoment(t *testing.T) {
	cfg := fastCfg(23)
	cfg.SDCChecks = true
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 10)
	// Plant an exact quiet NaN in the second moment; the next ADAM step
	// propagates it into the parameter, where the post-step scan must
	// catch it. Recompute checksums as if the corruption slipped past the
	// CRC guard (e.g. it happened inside the optimizer's own write).
	_, v := tr.ad.Moments()
	mask := math.Float32bits(v[7]) ^ 0x7FC00000
	if err := tr.CorruptWord("adam.v", 7, mask); err != nil {
		t.Fatal(err)
	}
	tr.recordSums() // simulate corruption within a legitimate write window
	err = tr.Step()
	if !IsCorruption(err) {
		t.Fatalf("Step() = %v, want CorruptionError from the NaN scan", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) || !ce.NonFinite {
		t.Fatalf("detection %+v should be the non-finite scan", ce)
	}
}

func TestGuardedRunBitIdenticalToUnguarded(t *testing.T) {
	// The guards are read-only: enabling them must not change a single bit
	// of the training numerics.
	a := Run(Config{Steps: 40, PreSteps: 30, Seed: 31, DBA: true, ActAfterSteps: 10})
	b := Run(Config{Steps: 40, PreSteps: 30, Seed: 31, DBA: true, ActAfterSteps: 10, SDCChecks: true})
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc {
		t.Fatal("SDC guards changed the numerics")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d diverged under guards", i)
		}
	}
}

func TestStepPastEndErrors(t *testing.T) {
	cfg := Config{Steps: 3, PreSteps: 5, Seed: 1}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 3)
	if err := tr.Step(); err == nil {
		t.Fatal("stepping past the configured run length must error")
	}
}
