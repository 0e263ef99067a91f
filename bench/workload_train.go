package main

import (
	"fmt"
	"math"
	"time"

	"teco"
	"teco/bench/spec"
)

var trainArchs = []string{"mlp", "attention", "stack"}

// trainClasses is the label count of realtrain's default dataset: an
// accuracy at or below 1/trainClasses is chance.
const trainClasses = 8

func trainConfig(p params, arch string) teco.FineTuneConfig {
	return teco.FineTuneConfig{
		Steps: p.scaled(spec.TrainSteps), PreSteps: p.scaled(spec.TrainPreSteps), Batch: spec.TrainBatch,
		Seed: p.seed, Arch: arch, DBA: true, SDCChecks: true, // Workers 0: the library default, serial
	}
}

// trainRound fine-tunes each architecture once and returns the round's
// digest — final loss bits and accuracy of every run — and each call's
// duration in ms.
func trainRound(p params, op, parent int) (digest string, callsMs []float64, err error) {
	for _, arch := range trainArchs {
		sp := p.rec.begin("FineTune "+arch, "realtrain", op, parent)
		t0 := time.Now()
		res := teco.FineTune(trainConfig(p, arch))
		callsMs = append(callsMs, float64(time.Since(t0))/1e6)
		p.rec.end(sp)
		if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
			return "", nil, fmt.Errorf("%s: final loss %v is not finite", arch, res.FinalLoss)
		}
		// Chance is the check at full scale only: a one-step smoke run has
		// not learnt anything yet.
		if p.scale == 1 && res.FinalAcc <= 1.0/trainClasses {
			return "", nil, fmt.Errorf("%s: final accuracy %.4f is not above chance", arch, res.FinalAcc)
		}
		digest += fmt.Sprintf("%s:%016x:%.6f ", arch, math.Float64bits(res.FinalLoss), res.FinalAcc)
	}
	return digest, callsMs, nil
}

// runTrain times teco.FineTune in process. An op is one fine-tuning step; a
// sample is one FineTune call of TrainPreSteps + TrainSteps steps; a window
// is one round of three calls (mlp, attention, stack), so p50_ms is the
// middle architecture's call.
func runTrain(p params) (*result, error) {
	// Set-up is a short warm-up round: first-use allocation and page
	// faults happen here, not in the first timed sample.
	warm := p
	warm.scale, warm.rec = p.scale/10, nil
	setups, err := timeSetups(func(bool) error {
		_, _, err := trainRound(warm, 0, -1)
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: "train", Seed: p.seed, SetupS: setups, OpUnit: "training steps", SampleUnit: "one FineTune call",
		TailWant: 0.9, Exact: map[string]string{},
	}
	stepsPerRound := len(trainArchs) * p.scaled(spec.TrainSteps)
	phase := p.rec.begin("train", "bench", 0, -1)
	start := time.Now()
	var windows []window // one per round
	// Stop at the whole number of rounds nearest to --seconds.
	for last := 0.0; p.ctx.Err() == nil && (len(windows) == 0 || time.Since(start).Seconds()+last/2 < p.seconds); {
		cpu0, _ := selfUsage()
		t0 := time.Now()
		digest, callsMs, err := trainRound(p, len(windows)+1, phase)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		cpu1, _ := selfUsage()
		last = wall.Seconds()
		if prev, ok := r.Exact["train_digest"]; ok && prev != digest {
			return nil, fmt.Errorf("FineTune is not deterministic: %q then %q", prev, digest)
		}
		r.Exact["train_digest"] = digest
		r.Attempted += stepsPerRound
		windows = append(windows, window{ops: float64(stepsPerRound), wall: wall, cpu: cpu1 - cpu0, samplesMs: callsMs})
	}
	p.rec.end(phase)
	_, r.PeakRSSMiB = selfUsage()
	r.useBest(windows)
	return r, nil
}
