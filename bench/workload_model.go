package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"

	"teco"
	"teco/bench/spec"
)

var (
	tecoSystems = []teco.System{teco.TECOCXL, teco.TECOReduction, teco.TECOInvalidation}
	simBatches  = []int{4, 8, 16}
)

// cell is the part of a simulated step the benchmark pins: every sweep must
// reproduce it exactly.
type cell struct{ total, paramBytes, gradBytes int64 }

func simulate(sys teco.System, m teco.Model, batch int) cell {
	r := teco.Simulate(sys, m, batch, teco.SimConfig{})
	return cell{int64(r.Total()), r.ParamLinkBytes, r.GradLinkBytes}
}

// sweep runs every (system, model, batch) point once. With want non-nil it
// checks each point against the first sweep; otherwise it returns the points.
func sweep(systems []teco.System, models []teco.Model, want []cell) ([]cell, error) {
	var got []cell
	i := 0
	for _, sys := range systems {
		for _, m := range models {
			for _, b := range simBatches {
				c := simulate(sys, m, b)
				if want == nil {
					got = append(got, c)
				} else if c != want[i] {
					return nil, fmt.Errorf("Simulate(%v, %s, %d) gave %+v, first sweep gave %+v", sys, m.Name, b, c, want[i])
				}
				i++
			}
		}
	}
	return got, nil
}

// paperSpeedup holds the 11 Table IV cells (TECO-Reduction speedup over
// ZeRO-Offload) the repository quotes in internal/experiments; T5-large at
// batch 16 is out of memory in the paper and has no cell.
var paperSpeedup = map[string]map[int]float64{
	"GPT2":              {4: 1.82, 8: 1.52, 16: 1.32},
	"Albert-xxlarge-v1": {4: 1.25, 8: 1.23, 16: 1.08},
	"Bert-large-cased":  {4: 1.6, 8: 1.62, 16: 1.41},
	"T5-large":          {4: 1.73, 8: 1.58},
}

// fidelityCeilingPct is model.fidelity_err_pct as measured by the PR that
// defined the benchmark. The figure is deterministic, so its regression
// bound is exact: a run whose error exceeds the ceiling fails its
// correctness check. Calibration constants live in
// internal/modelzoo/constants.go; no held-out split exists yet, so this is
// error on the cells the constants were tuned against.
const fidelityCeilingPct = 5.041212

// fidelity computes the simulated-time figures reported beside the paper's:
// mean absolute relative error of the speedup against Table IV, average and
// maximum training-time reduction, and average exposed-communication
// reduction at batch 4.
func fidelity() map[string]float64 {
	var errSum, redSum, redMax, commSum float64
	var errN, redN, commN int
	for _, m := range teco.Models() {
		batches := simBatches
		if m.FullGraphOnly {
			batches = []int{1}
		}
		for i, b := range batches {
			if !m.FullGraphOnly && !m.FitsOnV100(b) {
				continue
			}
			base := teco.Simulate(teco.ZeroOffload, m, b, teco.SimConfig{})
			red := teco.Simulate(teco.TECOReduction, m, b, teco.SimConfig{})
			sp := red.Speedup(base)
			if paper, ok := paperSpeedup[m.Name][b]; ok {
				errSum += math.Abs(sp-paper) / paper
				errN++
			}
			saved := 1 - 1/sp
			redSum += saved
			redMax = math.Max(redMax, saved)
			redN++
			if i == 0 {
				commSum += red.CommReduction(base)
				commN++
			}
		}
	}
	return map[string]float64{
		"model.fidelity_err_pct":       100 * errSum / float64(errN),
		"model.time_reduction_avg_pct": 100 * redSum / float64(redN),
		"model.time_reduction_max_pct": 100 * redMax,
		"model.comm_reduction_avg_pct": 100 * commSum / float64(commN),
	}
}

// runSweeps is the shared body of model-simulate and model-baseline: timed
// samples of perSample sweeps each, in spec.Windows windows that together
// last --seconds. An op is one simulated training step.
func runSweeps(p params, name string, systems []teco.System, perSample, warmSweeps int, setup func() error) (*result, error) {
	models := teco.Models()
	var first []cell
	setups, err := timeSetups(func(bool) error {
		if err := setup(); err != nil {
			return err
		}
		var err error
		if first, err = sweep(systems, models, nil); err != nil { // the reference every sweep must repeat
			return err
		}
		for i := 0; i < warmSweeps && err == nil; i++ {
			_, err = sweep(systems, models, first)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: name, Seed: p.seed, SetupS: setups, OpUnit: "simulated steps",
		SampleUnit: fmt.Sprintf("%d sweeps of %d Simulate calls", perSample, len(first)),
		TailWant:   0.9, Exact: map[string]string{},
	}
	r.Exact["sim_results"] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(first))))
	phase := p.rec.begin(name, "bench", 0, -1)
	var windows []window
	for w := 0; w < spec.Windows && p.ctx.Err() == nil; w++ {
		var win window
		cpu0, _ := selfUsage()
		start := time.Now()
		for win.ops == 0 || time.Since(start).Seconds() < p.seconds/spec.Windows {
			sp := p.rec.begin("Simulate sweeps", "core+zero", r.Attempted, phase)
			t0 := time.Now()
			for i := 0; i < perSample; i++ {
				if _, err := sweep(systems, models, first); err != nil {
					return nil, err
				}
			}
			win.samplesMs = append(win.samplesMs, float64(time.Since(t0))/1e6)
			p.rec.end(sp)
			r.Attempted += perSample * len(first)
			win.ops += float64(perSample * len(first))
		}
		win.wall = time.Since(start)
		cpu1, _ := selfUsage()
		win.cpu = cpu1 - cpu0
		windows = append(windows, win)
	}
	p.rec.end(phase)
	_, r.PeakRSSMiB = selfUsage()
	r.useBest(windows)
	return r, nil
}

// runSimulate is the timing plane alone. Its set-up computes the fidelity
// figures, which double as its correctness check against the paper.
func runSimulate(p params) (*result, error) {
	var fid map[string]float64
	per := p.scaled(spec.SimBatchSize)
	r, err := runSweeps(p, "model-simulate", tecoSystems, per, 10*per, func() error {
		fid = fidelity()
		if got := fid["model.fidelity_err_pct"]; got > fidelityCeilingPct+1e-9 {
			return fmt.Errorf("fidelity error %.6f%% against Table IV exceeds the recorded %.6f%%", got, fidelityCeilingPct)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Layer = fid
	for _, k := range sortedKeys(fid) {
		r.Exact[k] = fmt.Sprintf("%.9f", fid[k])
	}
	r.Notes = append(r.Notes, "model.* figures are simulated time (paper: 33.7% avg / 55.4% max time reduction, 93.7% comm reduction); every other metric is host time")
	return r, nil
}

// runBaseline is the ZeRO-Offload engine alone, one sweep per sample.
func runBaseline(p params) (*result, error) {
	return runSweeps(p, "model-baseline", []teco.System{teco.ZeroOffload}, 1, p.scaled(8), func() error { return nil })
}

// replayKinds are the four functional-stack replays of one round.
var replayKinds = []struct {
	name     string
	cfg      teco.ReplayConfig
	grads    bool
	lineSize int64 // payload bytes per cache line
}{
	{"full", teco.ReplayConfig{}, false, 64},
	{"dba", teco.ReplayConfig{DBA: true, DirtyBytes: 2}, false, 32},
	{"inval", teco.ReplayConfig{Invalidation: true}, false, 64},
	{"grad", teco.ReplayConfig{}, true, 64},
}

// replayInputs makes the seeded tensor pair: old parameters and a small
// relative update of every word, as an ADAM step would leave them.
func replayInputs(seed int64, n int) (old, updated *teco.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	old, updated = teco.NewTensor("old", n), teco.NewTensor("updated", n)
	for i := 0; i < n; i++ {
		v := float32(rng.NormFloat64())
		old.Set(i, v)
		updated.Set(i, v*(1+1e-4*float32(rng.NormFloat64())))
	}
	return old, updated
}

// replayOnce runs one replay kind, taking the wall and CPU time of the call
// alone, then verifies its output word by word.
func replayOnce(k int, old, updated *teco.Tensor) (lines int64, took, cpu time.Duration, err error) {
	kind := replayKinds[k]
	var out *teco.Tensor
	var st teco.ReplayStats
	cpu0, _ := selfUsage()
	t0 := time.Now()
	if kind.grads {
		out, st, err = teco.ReplayGradients(updated, kind.cfg)
	} else {
		out, st, err = teco.ReplayUpdate(old, updated, kind.cfg)
	}
	took = time.Since(t0)
	cpu1, _ := selfUsage()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("replay %s: %w", kind.name, err)
	}
	wantLines := (int64(old.Len())*4 + 63) / 64
	if st.Lines != wantLines || st.PayloadBytes != kind.lineSize*wantLines {
		return 0, 0, 0, fmt.Errorf("replay %s: %d lines, %d payload bytes; want %d and %d", kind.name, st.Lines, st.PayloadBytes, wantLines, kind.lineSize*wantLines)
	}
	for i := 0; i < old.Len(); i++ {
		got, want := math.Float32bits(out.At(i)), math.Float32bits(updated.At(i))
		if kind.cfg.DBA { // new low bytes over old high bytes
			want = math.Float32bits(old.At(i))&0xFFFF0000 | want&0x0000FFFF
		}
		if got != want {
			return 0, 0, 0, fmt.Errorf("replay %s: word %d is %08x, want %08x", kind.name, i, got, want)
		}
	}
	return st.Lines, took, cpu1 - cpu0, nil
}

// runReplay times the functional protocol plane. An op is one cache line
// through the stack; a sample is one round of the four replay kinds.
func runReplay(p params) (*result, error) {
	n := p.scaled(spec.ReplayParams) / 16 * 16 // whole cache lines
	n = max(n, 16)
	var old, updated *teco.Tensor
	setups, err := timeSetups(func(bool) error {
		old, updated = replayInputs(p.seed, n)
		// Warm-up round on a quarter of the tensor: first-use allocation
		// happens here, not in the first timed sample.
		so, su := replayInputs(p.seed, max(n/4/16*16, 16))
		for k := range replayKinds {
			if _, _, _, err := replayOnce(k, so, su); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload: "model-replay", Seed: p.seed, SetupS: setups, OpUnit: "cache lines", SampleUnit: "one round of 4 replays",
		TailWant: 0.9, Exact: map[string]string{},
	}
	phase := p.rec.begin("model-replay", "bench", 0, -1)
	var windows []window
	for w := 0; w < spec.Windows && p.ctx.Err() == nil; w++ {
		var win window
		for start := time.Now(); win.ops == 0 || time.Since(start).Seconds() < p.seconds/spec.Windows; {
			var round time.Duration
			for k, kind := range replayKinds {
				sp := p.rec.begin("Replay "+kind.name, "core", r.Attempted, phase)
				l, took, cpu, err := replayOnce(k, old, updated)
				p.rec.end(sp)
				if err != nil {
					return nil, err
				}
				win.ops += float64(l)
				round += took // the replay calls alone; verifying the output is not timed
				win.cpu += cpu
				r.Attempted += int(l)
			}
			win.wall += round
			win.samplesMs = append(win.samplesMs, float64(round)/1e6)
		}
		windows = append(windows, win)
	}
	p.rec.end(phase)
	_, r.PeakRSSMiB = selfUsage()
	r.useBest(windows)
	r.Exact["lines_per_round"] = fmt.Sprint(4 * int64(n) / 16)
	return r, nil
}
