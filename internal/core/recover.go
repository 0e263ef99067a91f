package core

import (
	"errors"
	"fmt"
	"math/rand"

	"teco/internal/checkpoint"
	"teco/internal/phases"
	"teco/internal/realtrain"
	"teco/internal/sim"
)

// SDCPlan schedules silent-data-corruption injections into a session's
// resident tensors — the software analogue of the link-level fault model:
// bit flips that arrive through a channel no CRC covers. Events are
// precomputed from the seed so a run is reproducible, and each event fires
// at most once, so rollback-and-replay always terminates.
type SDCPlan struct {
	// Seed drives the event schedule; Rate is the per-step probability of
	// an injection. Zero Rate disables injection.
	Seed int64
	Rate float64
	// MaxEvents bounds the number of injections (default 4).
	MaxEvents int
}

// sdcEvent is one scheduled corruption: flip bitMask of word index in the
// named resident tensor just before the step executes.
type sdcEvent struct {
	tensor  string
	index   int
	bitMask uint32
}

// SessionConfig controls a checkpointed training session.
type SessionConfig struct {
	// Train is the underlying fine-tuning run. SDC guards are forced on
	// inside a session regardless of Train.SDCChecks (the guards are
	// read-only, so guarded and unguarded runs stay bit-identical).
	Train realtrain.Config
	// Dir is the checkpoint directory (required).
	Dir string
	// Interval checkpoints every N completed steps (default 25; negative
	// disables periodic checkpointing).
	Interval int
	// KeepLast is the retention depth (default checkpoint.DefaultKeepLast).
	KeepLast int
	// MaxRollbacks aborts the run after this many recoveries (default 8) —
	// the backstop against a persistently corrupting environment.
	MaxRollbacks int
	// SDC optionally injects silent corruption to exercise recovery.
	SDC SDCPlan
}

func (c SessionConfig) withDefaults() SessionConfig {
	c.Train.SDCChecks = true
	if c.Interval == 0 {
		c.Interval = 25
	}
	if c.KeepLast == 0 {
		c.KeepLast = checkpoint.DefaultKeepLast
	}
	if c.MaxRollbacks == 0 {
		c.MaxRollbacks = 8
	}
	if c.SDC.MaxEvents == 0 {
		c.SDC.MaxEvents = 4
	}
	return c
}

// Session is a crash-recoverable training run: a realtrain.Trainer wrapped
// with periodic CRC-framed checkpoints, always-on SDC guards, and a
// rollback-and-replay policy. Construction auto-resumes from the newest
// intact checkpoint in the directory, so "kill the process, make a new
// Session over the same directory" is the recovery procedure — CrashRun
// proves it resumes bit-identically.
type Session struct {
	cfg     SessionConfig
	store   *checkpoint.Store
	tr      *realtrain.Trainer
	stats   phases.RecoveryStats
	resumed bool
	plan    map[int]sdcEvent
}

// NewSession opens (or creates) the checkpoint directory and either resumes
// from the newest intact snapshot or cold-starts a fresh trainer.
func NewSession(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	st, err := checkpoint.NewStore(cfg.Dir, cfg.KeepLast)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, store: st}

	snap, info, err := st.LoadLatest()
	switch {
	case err == nil:
		s.tr, err = realtrain.NewTrainerFromSnapshot(cfg.Train, snap)
		if err != nil {
			return nil, fmt.Errorf("core: resume from %s: %w", info.Path, err)
		}
		if err := s.tr.VerifyIntegrity(); err != nil {
			return nil, fmt.Errorf("core: resumed state failed integrity check: %w", err)
		}
		s.resumed = true
		s.stats.CorruptSnapshotsSkipped += int64(len(info.Skipped))
		s.stats.RecoveryTime += restoreTime(info.Size)
	case errors.Is(err, checkpoint.ErrNoSnapshot):
		// Cold start — but still account any corrupt files the walk
		// rejected on the way to "nothing loadable".
		s.stats.CorruptSnapshotsSkipped += int64(len(info.Skipped))
		s.tr, err = realtrain.NewTrainer(cfg.Train)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	s.plan = buildSDCPlan(cfg, s.tr)
	return s, nil
}

// buildSDCPlan precomputes the step->corruption schedule. The schedule is a
// pure function of the plan seed and the run shape, independent of how many
// times steps get replayed.
func buildSDCPlan(cfg SessionConfig, tr *realtrain.Trainer) map[int]sdcEvent {
	plan := map[int]sdcEvent{}
	if cfg.SDC.Rate <= 0 {
		return plan
	}
	tensors := []string{"master", "compute", "adam.m", "adam.v"}
	rng := rand.New(rand.NewSource(cfg.SDC.Seed))
	n := len(tr.MasterParams())
	for step := 0; step < tr.Config().Steps && len(plan) < cfg.SDC.MaxEvents; step++ {
		if rng.Float64() >= cfg.SDC.Rate {
			continue
		}
		plan[step] = sdcEvent{
			tensor:  tensors[rng.Intn(len(tensors))],
			index:   rng.Intn(n),
			bitMask: 1 << uint(1+rng.Intn(30)),
		}
	}
	return plan
}

// Trainer exposes the underlying trainer (read-only use by tests).
func (s *Session) Trainer() *realtrain.Trainer { return s.tr }

// Stats returns the accumulated recovery accounting.
func (s *Session) Stats() phases.RecoveryStats { return s.stats }

// Checkpoint persists the current trainer state immediately.
func (s *Session) Checkpoint() error {
	_, size, err := s.store.Save(s.tr.Snapshot())
	if err != nil {
		return err
	}
	s.stats.CkptWrites++
	s.stats.CkptBytes += size
	return nil
}

// Run drives the session to completion: inject scheduled SDC events, step,
// roll back and replay on detection, checkpoint every Interval steps, and
// write a final checkpoint at the end.
func (s *Session) Run() (realtrain.Result, error) {
	if err := s.RunUntil(s.tr.Config().Steps); err != nil {
		return realtrain.Result{}, err
	}
	if err := s.Checkpoint(); err != nil {
		return realtrain.Result{}, err
	}
	return s.tr.Result(), nil
}

// RunUntil advances the session to the given step count (bounded by the
// configured run length). CrashRun uses it to stop mid-flight.
func (s *Session) RunUntil(stop int) error {
	if stop > s.tr.Config().Steps {
		stop = s.tr.Config().Steps
	}
	for s.tr.StepCount() < stop {
		step := s.tr.StepCount()
		if ev, ok := s.plan[step]; ok {
			// Consume the event so replay passes this step cleanly.
			delete(s.plan, step)
			if err := s.tr.CorruptWord(ev.tensor, ev.index, ev.bitMask); err != nil {
				return err
			}
		}
		if err := s.tr.Step(); err != nil {
			if !realtrain.IsCorruption(err) {
				return err
			}
			s.stats.SDCDetected++
			if err := s.rollback(); err != nil {
				return err
			}
			continue
		}
		done := s.tr.StepCount()
		if s.cfg.Interval > 0 && done%s.cfg.Interval == 0 {
			if err := s.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rollback restores the newest intact checkpoint (or cold-starts when none
// survives) and accounts the replay distance. The guards detect corruption
// before it is committed past the failing phase, so the restored state plus
// deterministic replay reproduces the fault-free run bit-exactly.
func (s *Session) rollback() error {
	if s.stats.Rollbacks >= int64(s.cfg.MaxRollbacks) {
		return fmt.Errorf("core: aborting after %d rollbacks (persistent corruption)", s.stats.Rollbacks)
	}
	cur := s.tr.StepCount()

	snap, info, err := s.store.LoadLatest()
	switch {
	case err == nil:
		s.stats.CorruptSnapshotsSkipped += int64(len(info.Skipped))
		s.tr, err = realtrain.NewTrainerFromSnapshot(s.cfg.Train, snap)
		if err != nil {
			return fmt.Errorf("core: rollback to %s: %w", info.Path, err)
		}
	case errors.Is(err, checkpoint.ErrNoSnapshot):
		// Nothing persisted yet: replay from step zero. NewTrainer is
		// deterministic in the seed, so this is still bit-exact.
		s.stats.CorruptSnapshotsSkipped += int64(len(info.Skipped))
		s.tr, err = realtrain.NewTrainer(s.cfg.Train)
		if err != nil {
			return err
		}
	default:
		return err
	}
	if err := s.tr.VerifyIntegrity(); err != nil {
		return fmt.Errorf("core: restored state failed integrity check: %w", err)
	}
	s.stats.Rollbacks++
	s.stats.ReplayedSteps += int64(cur - s.tr.StepCount())
	s.stats.RecoveryTime += restoreTime(info.Size)
	return nil
}

// ckptReadBandwidth models NVMe-class sequential read for restore timing —
// deterministic like every sim.Time in the repo, so the recovery sweep is
// exactly regenerable (the repo's determinism invariant).
const ckptReadBandwidth = 2 << 30 // bytes/s

// restoreTime charges the modeled cost of re-reading an encoded snapshot.
func restoreTime(bytes int64) sim.Time {
	return sim.Time(float64(bytes) / float64(ckptReadBandwidth) * float64(sim.Second))
}

// CrashRun is the crash-injection harness: run a session until crashAt
// completed steps, kill it there (the Session is simply abandoned, exactly
// like a process death — no flush, no final checkpoint), then construct a
// new Session over the same directory, which auto-resumes from the newest
// intact checkpoint and finishes the run. It returns the survivor's result
// and the combined recovery accounting of both incarnations.
func CrashRun(cfg SessionConfig, crashAt int) (realtrain.Result, phases.RecoveryStats, error) {
	first, err := NewSession(cfg)
	if err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	if err := first.RunUntil(crashAt); err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	// Process dies here. No state survives except the checkpoint directory.

	second, err := NewSession(cfg)
	if err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	resumeAt := second.Trainer().StepCount()
	res, err := second.Run()
	if err != nil {
		return realtrain.Result{}, phases.RecoveryStats{}, err
	}
	stats := first.Stats().Add(second.Stats())
	// The steps between the resume point and the crash are executed twice:
	// once by the victim, once by the survivor.
	if crashAt > resumeAt {
		stats.ReplayedSteps += int64(crashAt - resumeAt)
	}
	return res, stats, nil
}
