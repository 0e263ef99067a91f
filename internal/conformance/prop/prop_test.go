package prop

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/modelzoo"
	"teco/internal/realtrain"
)

// propSeed fixes the configuration draws: case k is identical everywhere.
const propSeed = 42

// defaultCases balances coverage against wall clock; CI overrides it via
// PROP_CASES (reduced under -race, where every hot loop runs instrumented).
const defaultCases = 6

func caseCount(t *testing.T) int {
	if s := os.Getenv("PROP_CASES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("invalid PROP_CASES %q", s)
		}
		return n
	}
	return defaultCases
}

// propCase is one drawn configuration across every axis the harness sweeps.
type propCase struct {
	seed       int64   // training + fault RNG seed
	ber        float64 // link bit-error rate (0 = pristine)
	dirtyBytes int     // DBA dirty_bytes hyperparameter
	workers    int     // trainer parallelism knob
	batch      int     // engine step batch size
	interval   int     // checkpoint interval (steps)
	crashAt    int     // step the crash/restore relation kills the run at
	degrade    bool    // graceful-degradation policy
}

func (c propCase) String() string {
	return fmt.Sprintf("seed=%d ber=%g dirty=%d workers=%d batch=%d interval=%d crash=%d degrade=%v",
		c.seed, c.ber, c.dirtyBytes, c.workers, c.batch, c.interval, c.crashAt, c.degrade)
}

// draw generates the deterministic case table.
func draw(n int) []propCase {
	rng := rand.New(rand.NewSource(propSeed))
	bers := []float64{0, 1e-11, 1e-10, 5e-10}
	cases := make([]propCase, n)
	for i := range cases {
		cases[i] = propCase{
			seed:       rng.Int63n(1 << 30),
			ber:        bers[rng.Intn(len(bers))],
			dirtyBytes: 1 + rng.Intn(3),
			workers:    2 + rng.Intn(6),
			batch:      []int{4, 8, 16}[rng.Intn(3)],
			interval:   []int{3, 5, 8}[rng.Intn(3)],
			crashAt:    2 + rng.Intn(trainSteps-4),
			degrade:    rng.Intn(2) == 1,
		}
	}
	return cases
}

const trainSteps = 12

// trainConfig is the fine-tuning proxy sized for the harness: small enough
// that every case runs in well under a second, large enough that the DBA
// merge, clipping and ADAM paths all execute.
func (c propCase) trainConfig() realtrain.Config {
	return realtrain.Config{
		Steps: trainSteps, PreSteps: 30, Hidden: 32, Batch: 8,
		Seed: c.seed, DBA: true, ActAfterSteps: 4,
		DirtyBytes: c.dirtyBytes, SampleEvery: 2, SDCChecks: true,
	}
}

// tinyModel keeps every case's steps cheap: ~4 MB of parameters over two
// layers.
func tinyModel(c propCase) modelzoo.Model {
	return modelzoo.Model{
		Name: "prop-tiny", Kind: modelzoo.TransformerEncoder,
		Params: 4e6, ComputeParams: 4e6,
		Layers: 2, Hidden: 64, Heads: 2, SeqLen: 32,
	}
}

func engineConfig(c propCase) core.Config {
	return core.Config{
		DBA: true, DirtyBytes: c.dirtyBytes,
		Degrade: c.degrade,
		Faults:  cxl.FaultConfig{Seed: c.seed, BER: c.ber},
	}
}

func step(t *testing.T, cfg core.Config, m modelzoo.Model, batch int) any {
	t.Helper()
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("engine %+v: %v", cfg, err)
	}
	return e.Step(m, batch)
}

// normalize strips the scheduling knob (excluded from the determinism
// contract by design) before whole-result comparison.
func normalize(r realtrain.Result) realtrain.Result {
	r.Config.Workers = 0
	return r
}

// TestMetamorphic is the single table-driven generator: every drawn
// configuration is pushed through all three metamorphic relations.
func TestMetamorphic(t *testing.T) {
	check.Enable(t)
	for i, c := range draw(caseCount(t)) {
		c := c
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			check.Enable(t)
			t.Log(c.String())

			m := tinyModel(c)

			// Relation 1: a fault model at BER zero is the pristine link.
			zcfg := engineConfig(c)
			zcfg.Faults = cxl.FaultConfig{Seed: c.seed, BER: 0}
			pcfg := engineConfig(c)
			pcfg.Faults = cxl.FaultConfig{}
			if z, p := step(t, zcfg, m, c.batch), step(t, pcfg, m, c.batch); !reflect.DeepEqual(z, p) {
				t.Errorf("zero-BER != fault-free:\n zero: %+v\n none: %+v", z, p)
			}

			// Relation 2: the trainer is bit-identical at every worker
			// count.
			serial := c.trainConfig()
			serial.Workers = 1
			parallel := c.trainConfig()
			parallel.Workers = c.workers
			rs, rp := realtrain.Run(serial), realtrain.Run(parallel)
			if !reflect.DeepEqual(normalize(rs), normalize(rp)) {
				t.Errorf("workers=1 != workers=%d:\n serial:   %+v\n parallel: %+v",
					c.workers, normalize(rs), normalize(rp))
			}

			// Relation 3: crash + restore lands on the uninterrupted run.
			scfg := core.SessionConfig{
				Train: c.trainConfig(), Dir: t.TempDir(), Interval: c.interval,
			}
			crashed, _, err := core.CrashRun(scfg, c.crashAt)
			if err != nil {
				t.Fatalf("crash run (%s): %v", c, err)
			}
			if !reflect.DeepEqual(normalize(crashed), normalize(rs)) {
				t.Errorf("crash at %d + restore != uninterrupted:\n crashed: %+v\n direct:  %+v",
					c.crashAt, normalize(crashed), normalize(rs))
			}
		})
	}
}
