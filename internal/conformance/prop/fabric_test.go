package prop

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/core"
	"teco/internal/cxl"
	"teco/internal/phases"
)

// fabricCase is one drawn switched-fabric configuration: port count,
// spine oversubscription and per-port bit-error rate.
type fabricCase struct {
	seed      int64
	ber       float64 // per-port BER (0 = pristine fabric)
	replicas  int     // accelerator ports / data-parallel width
	hostPorts int     // spine uplinks (< replicas oversubscribes)
	batch     int     // engine step batch size
}

func (c fabricCase) String() string {
	return fmt.Sprintf("seed=%d ber=%g replicas=%d hostPorts=%d batch=%d",
		c.seed, c.ber, c.replicas, c.hostPorts, c.batch)
}

// drawFabric generates the deterministic fabric case table. A distinct
// stream constant keeps it decorrelated from the link-layer draw.
func drawFabric(n int) []fabricCase {
	rng := rand.New(rand.NewSource(propSeed + 1))
	bers := []float64{0, 1e-11, 1e-10, 5e-10}
	cases := make([]fabricCase, n)
	for i := range cases {
		replicas := 2 + rng.Intn(3) // 2..4
		cases[i] = fabricCase{
			seed:      rng.Int63n(1 << 30),
			ber:       bers[rng.Intn(len(bers))],
			replicas:  replicas,
			hostPorts: 1 + rng.Intn(replicas),
			batch:     []int{8, 16}[rng.Intn(2)],
		}
	}
	return cases
}

func (c fabricCase) engineConfig() core.Config {
	return core.Config{
		DBA: true,
		Faults: cxl.FaultConfig{
			Seed: c.seed,
			BER:  c.ber,
		},
	}
}

// stepFabric runs one fabric step and fails the test on config errors.
func stepFabric(t *testing.T, cfg core.Config, c fabricCase, fc core.FabricConfig) phases.StepResult {
	t.Helper()
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("engine %+v: %v", cfg, err)
	}
	res, err := e.StepFabric(tinyModel(propCase{}), c.batch, fc)
	if err != nil {
		t.Fatalf("fabric step (%s): %v", c, err)
	}
	return res
}

// TestMetamorphicFabric pushes every drawn fabric configuration through the
// switched-fabric metamorphic relations; it rides the same PROP_CASES
// budget (and -race CI job) as TestMetamorphic.
func TestMetamorphicFabric(t *testing.T) {
	check.Enable(t)
	for i, c := range drawFabric(caseCount(t)) {
		c := c
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			check.Enable(t)
			t.Log(c.String())

			// Relation 1: a one-replica fabric with zero hop latency is the
			// bare link — StepFabric degenerates to Step bit-for-bit; only
			// the Fabric stats block (absent from Step) may differ.
			direct, err := core.NewEngine(c.engineConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := direct.Step(tinyModel(propCase{}), c.batch)
			got := stepFabric(t, c.engineConfig(), c, core.FabricConfig{Replicas: 1})
			got.Fabric = phases.FabricStats{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("1-replica fabric != bare link:\n fabric: %+v\n link:   %+v", got, want)
			}

			// Relation 2: a per-port fault model at BER zero is the
			// pristine fabric, at every port count and oversubscription.
			fc := core.FabricConfig{Replicas: c.replicas, HostPorts: c.hostPorts}
			zcfg := c.engineConfig()
			zcfg.Faults = cxl.FaultConfig{Seed: c.seed, BER: 0}
			pcfg := c.engineConfig()
			pcfg.Faults = cxl.FaultConfig{}
			z, p := stepFabric(t, zcfg, c, fc), stepFabric(t, pcfg, c, fc)
			if !reflect.DeepEqual(z, p) {
				t.Errorf("zero-BER fabric != fault-free fabric:\n zero: %+v\n none: %+v", z, p)
			}
		})
	}
}
