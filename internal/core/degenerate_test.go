package core

import (
	"reflect"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/fabric"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// fabricFaultConfigs is the fault matrix every degeneracy row runs under.
func fabricFaultConfigs() map[string]Config {
	return map[string]Config{
		"clean":    {},
		"dba":      {DBA: true},
		"ber":      {DBA: true, Faults: cxl.FaultConfig{Seed: 3, BER: 1e-7}},
		"stalls":   {Faults: cxl.FaultConfig{Seed: 3, StallProb: 0.01, StallTime: 2 * sim.Microsecond}},
		"degrade":  {DBA: true, Faults: cxl.FaultConfig{Seed: 3, BandwidthDegrade: 0.8}},
		"mixed":    {DBA: true, Faults: cxl.FaultConfig{Seed: 5, BER: 5e-8, StallProb: 0.005, StallTime: sim.Microsecond}},
		"per-line": {DBA: true, PerLine: true},
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
		if wantHits := int64(DefaultTierSteps) * int64(m.Layers) * 4; tr.FastHits != wantHits {
			t.Fatalf("tier walk hit %d times, want %d", tr.FastHits, wantHits)
		}
		got.Tier = phases.TierStats{}
		for s := 0; s < DefaultTierSteps; s++ {
			want = addStep(want, e.Step(m, 4))
		}
		return got, want
	},
}

// testDegenerate runs one plane's row across the fault matrix on a model
// small enough for the per-line reference path.
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
// path. Step allocates what the point-to-point dataflow needs: one engine,
// a link (and its queue ring) and a stream (and its engine) per direction,
// the gradient and update schedules, and one per-replica bookkeeping slice.
// A one-replica switched step seeds no failover RNG it never draws.
func TestStepAllocs(t *testing.T) {
	m := modelzoo.BertLargeCased()
	for _, cfg := range []Config{{}, {DBA: true}} {
		e := MustEngine(cfg)
		if n := testing.AllocsPerRun(50, func() { e.Step(m, 4) }); n > 14 {
			t.Errorf("%v Step: %v allocs, want <= 14", cfg.Variant(), n)
		}
		for _, fc := range []FabricConfig{{Replicas: 1}, {Replicas: 1, HopLatency: fabric.DefaultHopLatency}} {
			if n := testing.AllocsPerRun(50, func() { e.StepFabric(m, 4, fc) }); n >= 31 {
				t.Errorf("%v StepFabric%+v: %v allocs, want < 31", cfg.Variant(), fc, n)
			}
		}
	}
}
