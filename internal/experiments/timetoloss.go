package experiments

import (
	"math"

	"teco/internal/core"
	"teco/internal/modelzoo"
	"teco/internal/realtrain"
	"teco/internal/sim"
	"teco/internal/zero"
)

// TimeToLoss is a derived experiment combining both halves of the
// reproduction: the *numerical* effect of DBA (the real loss curve from
// realtrain) with the *timing* effect (per-step times from the engines).
// It answers the question the paper's separate convergence and speedup
// results imply: how much sooner does TECO-Reduction reach a given training
// loss in wall-clock time? Both training runs are concurrent grid points
// against the shared run cache (they are the same configs Fig 10 uses, so
// under "all" they cost nothing extra).
func TimeToLoss(opt Options) *Table {
	t := &Table{
		ID:     "time-to-loss",
		Title:  "Wall-clock time to reach a training-loss level (GPT-2 proxy, batch 4)",
		Header: []string{"Loss level", "ZeRO-Offload", "TECO-Reduction", "Sooner by"},
	}
	m := modelzoo.GPT2()
	cfgs := fig10Runs(opt)
	act := cfgs[1].ActAfterSteps
	runs := grid(opt, len(cfgs), func(i int) realtrain.Result { return runTrain(opt, cfgs[i]) })
	base, red := runs[0], runs[1]

	baseStep := zero.NewEngine().Step(m, 4).Total()
	cxlStep := core.MustEngine(core.Config{}).Step(m, 4).Total()
	dbaStep := core.MustEngine(core.Config{DBA: true}).Step(m, 4).Total()

	// Wall-clock of step s under each system.
	baseClock := func(s int) sim.Time { return sim.Time(int64(baseStep) * int64(s+1)) }
	tecoClock := func(s int) sim.Time {
		pre := s + 1
		if pre > act {
			pre = act
		}
		post := s + 1 - pre
		return sim.Time(int64(cxlStep)*int64(pre) + int64(dbaStep)*int64(post))
	}

	// Running-min loss curves (loss is noisy per minibatch).
	smooth := func(samples []realtrain.StepSample) []realtrain.StepSample {
		curve := make([]realtrain.StepSample, len(samples))
		best := math.Inf(1)
		for i, s := range samples {
			if s.Loss < best {
				best = s.Loss
			}
			curve[i] = realtrain.StepSample{Step: s.Step, Loss: best}
		}
		return curve
	}
	b, r := smooth(base.Samples), smooth(red.Samples)
	if len(b) == 0 || len(r) == 0 {
		return t // a cancelled grid handed back no run
	}

	// Loss levels: between the common start and the common end.
	start := math.Max(b[0].Loss, r[0].Loss)
	end := math.Max(b[len(b)-1].Loss, r[len(r)-1].Loss)
	firstAt := func(curve []realtrain.StepSample, level float64, clock func(int) sim.Time) (sim.Time, bool) {
		for _, s := range curve {
			if s.Loss <= level {
				return clock(s.Step), true
			}
		}
		return 0, false
	}
	for i := 1; i <= 4; i++ {
		level := start + float64((end-start)*float64(i)/4)
		bt, okB := firstAt(b, level, baseClock)
		rt, okR := firstAt(r, level, tecoClock)
		if !okB || !okR {
			continue
		}
		t.AddRow(f4(level), secs(bt.Seconds()), secs(rt.Seconds()),
			f2(float64(bt)/float64(rt))+"x")
	}
	t.Note("same optimizer trajectory modulo the DBA approximation; TECO reaches every loss level earlier because each step is cheaper")
	return t
}
