package teco

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"teco/internal/core"
)

func TestSystemStrings(t *testing.T) {
	cases := map[System]string{
		ZeroOffload:      "ZeRO-Offload",
		TECOCXL:          "TECO-CXL",
		TECOReduction:    "TECO-Reduction",
		TECOInvalidation: "TECO-Invalidation",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d => %q", int(s), s.String())
		}
	}
}

func TestModels(t *testing.T) {
	ms := Models()
	if len(ms) != 5 {
		t.Fatalf("models = %d", len(ms))
	}
	if _, ok := ModelByName("Bert-large-cased"); !ok {
		t.Fatal("lookup failed")
	}
}

func TestSimulateAndSpeedup(t *testing.T) {
	m, _ := ModelByName("Bert-large-cased")
	base := Simulate(ZeroOffload, m, 4, SimConfig{})
	red := Simulate(TECOReduction, m, 4, SimConfig{})
	if red.Total() >= base.Total() {
		t.Fatal("TECO-Reduction must be faster")
	}
	sp := Speedup(TECOReduction, m, 4)
	if sp <= 1.0 || sp > 2.5 {
		t.Fatalf("speedup = %v", sp)
	}
	if Speedup(TECOInvalidation, m, 4) >= Speedup(TECOCXL, m, 4) {
		t.Fatal("invalidation ablation must be slower than update protocol")
	}
	// Full-graph model ignores batch.
	g, _ := ModelByName("GCNII")
	if Simulate(TECOCXL, g, 4, SimConfig{}).Total() != Simulate(TECOCXL, g, 64, SimConfig{}).Total() {
		t.Fatal("GCNII batch must be ignored")
	}
}

func TestClassifyChange(t *testing.T) {
	one := math.Float32frombits(0x3F800000)
	if ClassifyChange(one, one) != Unchanged {
		t.Fatal("unchanged")
	}
	if ClassifyChange(one, math.Float32frombits(0x3F800001)) != LastByte {
		t.Fatal("last byte")
	}
	if ClassifyChange(one, -one) != OtherBytes {
		t.Fatal("sign flip")
	}
	_ = LastTwoBytes
}

func TestReplayUpdate(t *testing.T) {
	old := NewTensor("old", 64)
	upd := NewTensor("new", 64)
	for i := 0; i < 64; i++ {
		old.Set(i, float32(i))
		upd.Set(i, float32(i)+1e-5)
	}
	dev, stats, err := ReplayUpdate(old, upd, ReplayConfig{DBA: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 4 || stats.PayloadBytes != 4*32 {
		t.Fatalf("stats = %+v", stats)
	}
	if dev.Len() != 64 {
		t.Fatal("device tensor size")
	}
}

func TestFineTuneSmoke(t *testing.T) {
	r := FineTune(FineTuneConfig{Steps: 30, PreSteps: 30, Seed: 1})
	if len(r.Samples) == 0 || r.FinalAcc < 0 || r.FinalAcc > 1 {
		t.Fatalf("result = %+v", r.FinalAcc)
	}
}

func TestRunExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "table1") {
		t.Fatalf("output = %q", buf.String())
	}
	if err := RunExperiment("bogus", 1, &buf); err == nil {
		t.Fatal("unknown id must error")
	}
	if len(ExperimentIDs()) == 0 {
		t.Fatal("no experiment ids")
	}
}

func TestSimulateDPU(t *testing.T) {
	m, _ := ModelByName("Bert-large-cased")
	plain := Simulate(ZeroOffload, m, 8, SimConfig{})
	dpu := Simulate(ZeroOffload, m, 8, SimConfig{DPU: true})
	if dpu.Total() >= plain.Total() {
		t.Fatal("DPU must not be slower")
	}
}

// TestSimulateAllocs: a TECO Simulate call steps a shared engine over links
// held on the stack, so it allocates nothing over the Table III grid, and it
// returns exactly what a freshly built engine's Step does, at every
// dirty_bytes.
func TestSimulateAllocs(t *testing.T) {
	configs := map[System]core.Config{
		TECOCXL:          {},
		TECOReduction:    {DBA: true},
		TECOInvalidation: {Invalidation: true},
	}
	for sys, cfg := range configs {
		for _, m := range Models() {
			for _, b := range []int{4, 8, 16} {
				if n := testing.AllocsPerRun(10, func() { Simulate(sys, m, b, SimConfig{}) }); n != 0 {
					t.Errorf("Simulate(%v, %s, %d): %v allocs, want 0", sys, m.Name, b, n)
				}
				step := b
				if m.FullGraphOnly {
					step = 1
				}
				if got, want := Simulate(sys, m, b, SimConfig{}), core.MustEngine(cfg).Step(m, step); !reflect.DeepEqual(got, want) {
					t.Errorf("Simulate(%v, %s, %d) = %+v, fresh engine %+v", sys, m.Name, b, got, want)
				}
			}
		}
	}
	m := Models()[0]
	for d := -1; d <= 4; d++ {
		got := Simulate(TECOReduction, m, 4, SimConfig{DirtyBytes: d})
		if want := core.MustEngine(core.Config{DBA: true, DirtyBytes: d}).Step(m, 4); !reflect.DeepEqual(got, want) {
			t.Errorf("dirty_bytes %d: Simulate %+v, fresh engine %+v", d, got, want)
		}
	}
}

// TestSimulateConcurrent: the shared engines are only read, so concurrent
// Simulate calls return what serial ones do (run under -race).
func TestSimulateConcurrent(t *testing.T) {
	m := Models()[0]
	systems := []System{TECOCXL, TECOReduction, TECOInvalidation}
	want := make([]StepResult, len(systems))
	for i, sys := range systems {
		want[i] = Simulate(sys, m, 4, SimConfig{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(systems)
				if got := Simulate(systems[k], m, 4, SimConfig{}); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("concurrent Simulate(%v) = %+v, serial %+v", systems[k], got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReplayGradients(t *testing.T) {
	g := NewTensor("g", 128)
	for i := 0; i < 128; i++ {
		g.Set(i, float32(i)*0.5)
	}
	cpu, stats, err := ReplayGradients(g, ReplayConfig{})
	if err != nil || cpu.Len() != 128 || stats.Lines != 8 {
		t.Fatalf("cpu=%v stats=%+v err=%v", cpu.Len(), stats, err)
	}
}

func TestEstimateAndCost(t *testing.T) {
	m, _ := ModelByName("GPT2")
	est := EstimateTraining(m, 4, 1000, 500)
	if est.Speedup <= 1 {
		t.Fatalf("speedup %v", est.Speedup)
	}
	usd := AnnualSavingsUSD(DefaultCostModel(), est.TimeSavedFraction)
	if usd <= 0 {
		t.Fatalf("savings %v", usd)
	}
}
