package prop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/core"
	"teco/internal/realtrain"
)

// stackCase is one drawn configuration of the multi-layer "stack" arch:
// depth, dirty_bytes, worker count, checkpoint interval and crash step.
// TestMetamorphic covers the single-block MLP; this table is the only one
// that drives core.CrashRun over the stack's per-block backward pass.
type stackCase struct {
	seed     int64
	layers   int // transformer block count
	dirty    int // DBA dirty_bytes hyperparameter
	workers  int // trainer parallelism knob
	interval int // checkpoint interval (steps)
	crashAt  int // step the crash/restore relations kill the run at
}

func (c stackCase) String() string {
	return fmt.Sprintf("seed=%d layers=%d dirty=%d workers=%d interval=%d crash=%d",
		c.seed, c.layers, c.dirty, c.workers, c.interval, c.crashAt)
}

// drawStack generates the deterministic stack case table. A distinct
// stream constant keeps it decorrelated from the other draws.
func drawStack(n int) []stackCase {
	rng := rand.New(rand.NewSource(propSeed + 2))
	cases := make([]stackCase, n)
	for i := range cases {
		cases[i] = stackCase{
			seed:     rng.Int63n(1 << 30),
			layers:   2 + rng.Intn(3), // 2..4 blocks
			dirty:    1 + rng.Intn(3),
			workers:  2 + rng.Intn(6),
			interval: []int{2, 3, 5}[rng.Intn(3)],
			crashAt:  2 + rng.Intn(5),
		}
	}
	return cases
}

// trainConfig is the stack fine-tune sized for the harness.
func (c stackCase) trainConfig() realtrain.Config {
	return realtrain.Config{
		Arch: "stack", Layers: c.layers,
		Steps: 8, PreSteps: 12, Batch: 8, Seed: c.seed,
		DBA: true, ActAfterSteps: 3, DirtyBytes: c.dirty, SampleEvery: 2,
		SDCChecks: true,
	}
}

// crashRun runs a checkpointed session of cfg under plan, killed at
// crashAt and restored from disk (0: never killed).
func (c stackCase) crashRun(t *testing.T, plan core.SDCPlan, crashAt int) realtrain.Result {
	t.Helper()
	res, _, err := core.CrashRun(core.SessionConfig{
		Train: c.trainConfig(), Dir: t.TempDir(), Interval: c.interval, SDC: plan,
	}, crashAt)
	if err != nil {
		t.Fatalf("crash run (%s, crash at %d): %v", c, crashAt, err)
	}
	return normalize(res)
}

// TestMetamorphicStack pushes every drawn stack configuration through the
// trainer's relations; it rides the same PROP_CASES budget (and -race CI
// job) as TestMetamorphic.
func TestMetamorphicStack(t *testing.T) {
	check.Enable(t)
	for i, c := range drawStack(caseCount(t)) {
		c := c
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			check.Enable(t)
			t.Log(c.String())

			// Relation 1: the trainer is bit-identical at every worker count.
			serial := c.trainConfig()
			serial.Workers = 1
			parallel := c.trainConfig()
			parallel.Workers = c.workers
			ref := normalize(realtrain.Run(serial))
			if got := normalize(realtrain.Run(parallel)); !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=1 != workers=%d:\n serial:   %+v\n parallel: %+v", c.workers, ref, got)
			}

			// Relation 2: crash + restore lands on the uninterrupted run.
			if got := c.crashRun(t, core.SDCPlan{}, c.crashAt); !reflect.DeepEqual(got, ref) {
				t.Errorf("crash at %d + restore != uninterrupted:\n crashed: %+v\n direct:  %+v", c.crashAt, got, ref)
			}

			// Relation 3: with injected SDC the session rolls back and
			// replays; a kill + restore mid-run still equals the session's
			// own uninterrupted execution bit for bit.
			plan := core.SDCPlan{Seed: c.seed + 7, Rate: 0.25}
			crashed, direct := c.crashRun(t, plan, c.crashAt), c.crashRun(t, plan, 0)
			if !reflect.DeepEqual(crashed, direct) {
				t.Errorf("SDC run crashed at %d + restore != uninterrupted SDC run:\n crashed: %+v\n direct:  %+v", c.crashAt, crashed, direct)
			}
		})
	}
}
