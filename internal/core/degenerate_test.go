package core

import (
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/fabric"
	"teco/internal/modelzoo"
	"teco/internal/phases"
)

// fabricFaultConfigs is the fault matrix every degeneracy row runs under.
func fabricFaultConfigs() map[string]Config {
	return map[string]Config{
		"clean":   {},
		"dba":     {DBA: true},
		"ber":     {DBA: true, Faults: cxl.FaultConfig{Seed: 3, BER: 1e-7}},
		"degrade": {DBA: true, Degrade: true, Faults: cxl.FaultConfig{Seed: 3, BER: 1e-4}},
		"mixed":   {DBA: true, Faults: cxl.FaultConfig{Seed: 5, BER: 5e-8, RetryBudget: 2}},
	}
}

// degenerateRows holds, per plane, its degenerate setting: the plane's
// result (its own stats block checked, then zeroed) and the plain-Step
// result it must equal bit-identically — same breakdown, byte accounting
// and fault draws.
var degenerateRows = map[string]func(t *testing.T, e *Engine, m modelzoo.Model) (got, want phases.StepResult){
	// One replica, no spares, zero hop: the point-to-point transport, and
	// the same step through a switch with an idle spare port.
	"fabric": func(t *testing.T, e *Engine, m modelzoo.Model) (got, want phases.StepResult) {
		got, err := e.StepFabric(m, 4, FabricConfig{Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := e.StepFabric(m, 4, FabricConfig{Replicas: 1, SparePorts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sw) {
			t.Fatalf("point-to-point and one-port switch diverged:\n p2p %+v\n sw  %+v", got, sw)
		}
		if got.Fabric.Replicas != 1 || got.Fabric.Degraded || got.Fabric.SpineBytes == 0 {
			t.Fatalf("fabric stats implausible: %+v", got.Fabric)
		}
		got.Fabric = phases.FabricStats{}
		return got, e.Step(m, 4)
	},
	// Every layer resident: the walk hits each layer once per direction.
	"layered": func(t *testing.T, e *Engine, m modelzoo.Model) (got, want phases.StepResult) {
		got, err := e.StepLayered(m, 4, LayerConfig{Prefetch: 2})
		if err != nil {
			t.Fatal(err)
		}
		l := got.Layer
		if l.DemandMisses != 0 || l.FetchBytes != 0 || l.WritebackBytes != 0 ||
			l.DemandStall != 0 || l.PrefetchStall != 0 || l.ActStall != 0 {
			t.Fatalf("all-resident step shows staging traffic: %+v", l)
		}
		if l.Hits != 2*int64(m.Layers) {
			t.Fatalf("layer walk hit %d times, want %d", l.Hits, 2*m.Layers)
		}
		got.Layer = phases.LayerStats{}
		return got, e.Step(m, 4)
	},
	// Every slot fast: the sum of plain Steps, each layer's parameter slot
	// touched three times and its optimizer slot once per step.
	"tiered": func(t *testing.T, e *Engine, m modelzoo.Model) (got, want phases.StepResult) {
		got, _, err := e.RunTiered(m, 4, TierConfig{OptSlots: true, MigrateBudget: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		tr := got.Tier
		if tr.FarAccesses != 0 || tr.FarFetchBytes != 0 || tr.Migrations != 0 ||
			tr.FarStall != 0 || tr.AdamStall != 0 {
			t.Fatalf("all-fast run shows tier traffic: %+v", tr)
		}
		if wantHits := int64(TierSteps) * int64(m.Layers) * 4; tr.FastHits != wantHits {
			t.Fatalf("tier walk hit %d times, want %d", tr.FastHits, wantHits)
		}
		got.Tier = phases.TierStats{}
		for s := 0; s < TierSteps; s++ {
			want = addStep(want, e.Step(m, 4))
		}
		return got, want
	},
}

// testDegenerate runs one plane's row across the fault matrix on a small
// model.
func testDegenerate(t *testing.T, plane string) {
	check.Enable(t)
	m := modelzoo.GPT2()
	m.Params, m.ComputeParams, m.Layers = 2e6, 2e6, 4
	for name, cfg := range fabricFaultConfigs() {
		t.Run(name, func(t *testing.T) {
			got, want := degenerateRows[plane](t, MustEngine(cfg), m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s plane diverged from plain Step:\n got %+v\nwant %+v", plane, got, want)
			}
		})
	}
}

func TestStepFabricSingleReplicaMatchesStep(t *testing.T) { testDegenerate(t, "fabric") }
func TestStepLayeredAllResidentMatchesStep(t *testing.T)  { testDegenerate(t, "layered") }
func TestRunTieredAllFitsMatchesSteps(t *testing.T)       { testDegenerate(t, "tiered") }

// TestStepAllocs fences the per-step allocation count of the paper-table
// path. A point-to-point step allocates nothing: each direction's link,
// pending-queue ring included, is a value on the stack, the gradient and
// update schedules are values, and the one replica's bookkeeping is an
// array. A switched step allocates each of its two switches: the switch,
// its physical ports (their links inline) and three per-port tables, and
// seeds no failover RNG it never draws.
func TestStepAllocs(t *testing.T) {
	m := modelzoo.BertLargeCased()
	for _, cfg := range []Config{{}, {DBA: true}, {Invalidation: true}} {
		e := MustEngine(cfg)
		if n := testing.AllocsPerRun(50, func() { e.Step(m, 4) }); n != 0 {
			t.Errorf("%v Step: %v allocs, want 0", cfg.Variant(), n)
		}
		if cfg.Invalidation {
			continue // the fabric runs the update protocol only
		}
		for fc, want := range map[FabricConfig]float64{
			{Replicas: 1}: 0,
			{Replicas: 1, HopLatency: fabric.DefaultHopLatency}: 10,
		} {
			if n := testing.AllocsPerRun(50, func() { e.StepFabric(m, 4, fc) }); n > want {
				t.Errorf("%v StepFabric%+v: %v allocs, want <= %v", cfg.Variant(), fc, n, want)
			}
		}
	}
}
