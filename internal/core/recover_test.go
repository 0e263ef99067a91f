package core

import (
	"math"
	"strings"
	"testing"

	"teco/internal/checkpoint"
	"teco/internal/realtrain"
)

// recoverCfg keeps the recovery tests quick while still exercising DBA
// activation and sampling inside the checkpointed window.
func recoverCfg(dir string) SessionConfig {
	return SessionConfig{
		Train: realtrain.Config{
			Steps: 60, PreSteps: 40, Seed: 77,
			DBA: true, ActAfterSteps: 20, SampleEvery: 5,
		},
		Dir:      dir,
		Interval: 10,
	}
}

func wordsEqual(a, b []float32) bool {
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

// referenceRun executes the same training uninterrupted (guards on, no
// checkpointing, no faults) and returns the finished trainer.
func referenceRun(t *testing.T, cfg SessionConfig) *realtrain.Trainer {
	t.Helper()
	train := cfg.Train
	train.SDCChecks = true
	tr, err := realtrain.NewTrainer(train)
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func assertSameRun(t *testing.T, ref, got *realtrain.Trainer) {
	t.Helper()
	if !wordsEqual(ref.MasterParams(), got.MasterParams()) {
		t.Fatal("master parameters diverged from uninterrupted run")
	}
	rs, gs := ref.Snapshot(), got.Snapshot()
	if !wordsEqual(rs.Compute, gs.Compute) {
		t.Fatal("compute copy diverged from uninterrupted run")
	}
	if !wordsEqual(rs.AdamM, gs.AdamM) || !wordsEqual(rs.AdamV, gs.AdamV) {
		t.Fatal("ADAM moments diverged from uninterrupted run")
	}
	a, b := ref.Result(), got.Result()
	if a.FinalLoss != b.FinalLoss || a.FinalAcc != b.FinalAcc || a.DivergedWords != b.DivergedWords {
		t.Fatal("final metrics diverged from uninterrupted run")
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("loss trajectory has %d vs %d samples", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("loss-trajectory sample %d diverged: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

// The ISSUE acceptance criterion: kill at an arbitrary step, restore, and
// the final parameters, ADAM moments, and loss trajectory are bit-identical
// to an uninterrupted run.
func TestCrashRunBitIdentical(t *testing.T) {
	for _, crashAt := range []int{5, 23, 40, 59} {
		cfg := recoverCfg(t.TempDir())
		ref := referenceRun(t, cfg)

		_, stats, err := CrashRun(cfg, crashAt)
		if err != nil {
			t.Fatalf("crash at %d: %v", crashAt, err)
		}
		// Reload the survivor's final checkpoint and compare every tensor.
		st, err := checkpoint.NewStore(cfg.Dir, cfg.KeepLast)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := st.LoadLatest()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Step != int64(cfg.Train.Steps) {
			t.Fatalf("crash at %d: final checkpoint at step %d", crashAt, snap.Step)
		}
		got, err := realtrain.NewTrainerFromSnapshot(withGuards(cfg.Train), snap)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, ref, got)
		if stats.CkptWrites == 0 {
			t.Fatalf("crash at %d: no checkpoints written", crashAt)
		}
		// No SDC is injected here, so the replay distance is exactly the
		// crash offset past the last checkpoint (the whole run when the
		// crash precedes the first checkpoint).
		want := int64(crashAt % cfg.Interval)
		if crashAt < cfg.Interval {
			want = int64(crashAt)
		}
		if stats.ReplayedSteps != want {
			t.Fatalf("crash at %d: replayed %d steps, want %d", crashAt, stats.ReplayedSteps, want)
		}
	}
}

func withGuards(c realtrain.Config) realtrain.Config {
	c.SDCChecks = true
	return c
}

// Restore-after-poison: scheduled silent corruption is detected by the
// guards, rolled back, replayed — and the run still ends bit-identical to a
// fault-free one.
func TestSessionRecoversFromInjectedSDC(t *testing.T) {
	cfg := recoverCfg(t.TempDir())
	cfg.SDC = SDCPlan{Seed: 3, Rate: 0.08, MaxEvents: 3}
	ref := referenceRun(t, cfg)

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.SDCDetected == 0 || stats.Rollbacks == 0 {
		t.Fatalf("injection plan produced no detections: %+v", stats)
	}
	if stats.SDCDetected != stats.Rollbacks {
		t.Fatalf("every detection must roll back: %+v", stats)
	}
	if stats.ReplayedSteps == 0 && stats.Rollbacks > 0 {
		// A rollback at step 0 before any checkpoint legitimately replays
		// nothing; with three events this is vanishingly unlikely, so treat
		// it as a schedule bug.
		t.Fatalf("rollbacks without replayed steps: %+v", stats)
	}
	assertSameRun(t, ref, s.Trainer())
}

// A truncated or bit-flipped checkpoint must be detected by CRC at restore
// time and never loaded: the session falls back to the previous intact
// snapshot and still finishes bit-identically.
func TestSessionFallsBackPastDamagedCheckpoints(t *testing.T) {
	cfg := recoverCfg(t.TempDir())
	ref := referenceRun(t, cfg)

	victim, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	// Simulated crash, then storage damage: bit-flip the newest checkpoint
	// (step 30) and truncate the one before it (step 20).
	st, err := checkpoint.NewStore(cfg.Dir, cfg.KeepLast)
	if err != nil {
		t.Fatal(err)
	}
	files, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("expected checkpoints at steps 10/20/30, got %v", files)
	}
	if err := checkpoint.FlipBit(files[2], 4444); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.TruncateTail(files[1], 64); err != nil {
		t.Fatal(err)
	}

	survivor, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !survivor.resumed {
		t.Fatal("survivor did not resume from a checkpoint")
	}
	if got := survivor.Trainer().StepCount(); got != 10 {
		t.Fatalf("resumed at step %d, want fallback to 10", got)
	}
	if got := survivor.Stats().CorruptSnapshotsSkipped; got != 2 {
		t.Fatalf("CorruptSnapshotsSkipped = %d, want 2", got)
	}
	if _, err := survivor.Run(); err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, survivor.Trainer())
}

// With every checkpoint destroyed, the session must refuse to load any of
// them (CRC) and cold-start from step zero — corrupted checkpoints are
// never loaded, the other half of the acceptance criterion.
func TestSessionColdStartsWhenAllCheckpointsCorrupt(t *testing.T) {
	cfg := recoverCfg(t.TempDir())
	victim, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RunUntil(35); err != nil {
		t.Fatal(err)
	}
	st, _ := checkpoint.NewStore(cfg.Dir, cfg.KeepLast)
	files, _ := st.List()
	for _, f := range files {
		if err := checkpoint.FlipBit(f, 99); err != nil {
			t.Fatal(err)
		}
	}
	survivor, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if survivor.resumed || survivor.Trainer().StepCount() != 0 {
		t.Fatal("survivor loaded a corrupt checkpoint")
	}
	if got := survivor.Stats().CorruptSnapshotsSkipped; got != int64(len(files)) {
		t.Fatalf("CorruptSnapshotsSkipped = %d, want %d", got, len(files))
	}
}

// The rollback backstop: persistent corruption aborts instead of looping.
func TestSessionAbortsAfterMaxRollbacks(t *testing.T) {
	cfg := recoverCfg(t.TempDir())
	cfg.MaxRollbacks = 1
	cfg.SDC = SDCPlan{Seed: 1, Rate: 1.0, MaxEvents: 3}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	if err == nil || !strings.Contains(err.Error(), "rollbacks") {
		t.Fatalf("Run() = %v, want rollback-limit abort", err)
	}
}
