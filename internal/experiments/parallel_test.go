package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"teco/internal/realtrain"
)

// fastGenerators are the engine-only tables (zero, core and compressbl
// engines, no real training): cheap enough to regenerate at several worker
// counts and deep-compare.
var fastGenerators = map[string]func(Options) *Table{
	"table1":         TableI,
	"ablation-inval": AblationInvalidation,
	"fig11":          Fig11TableIV,
	"fig12":          Fig12,
	"volume":         CommVolume,
	"table6":         TableVI,
	"table8":         TableVIII,
	"ablation-dpu":   AblationDPU,
	"linkspeed":      LinkSpeedSweep,
	"faults":         FaultSweep,
}

// TestTablesIdenticalAcrossWorkerCounts regenerates every engine-backed
// table at workers 1, 2 and 8 and requires byte-identical output — the
// sweep-runner half of the determinism contract.
func TestTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	for name, gen := range fastGenerators {
		ref := gen(Options{Seed: 3, Workers: 1})
		for _, workers := range []int{2, 8} {
			got := gen(Options{Seed: 3, Workers: workers})
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s: table differs at workers=%d:\nserial: %+v\nparallel: %+v", name, workers, ref, got)
			}
		}
	}
}

// TestRecoverySweepIdenticalAcrossWorkerCounts is the end-to-end check for
// the parallel trainer under crash/restore: the full recovery table — run
// uncached so every cell really trains — must match the serial one.
func TestRecoverySweepIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	base := Options{Seed: 5, CkptInterval: 10, CrashAt: 13, NoMemo: true}
	serial := base
	serial.Workers = 1
	ref := RecoverySweep(serial)
	par := base
	par.Workers = 8
	got := RecoverySweep(par)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("recovery sweep differs across worker counts:\nserial: %+v\nparallel: %+v", ref, got)
	}
	for _, row := range got.Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("parallel recovered run not bit-identical: %v", row)
		}
	}
}

// TestRunCacheDedup asserts the memoization actually collapses duplicate
// runs and shared pre-training phases, and that NoMemo bypasses it.
func TestRunCacheDedup(t *testing.T) {
	resetRunCache()
	defer resetRunCache()
	cfg := realtrain.Config{Steps: 8, PreSteps: 6, Hidden: 16, Seed: 21, SampleEvery: 4}
	dbaCfg := cfg
	dbaCfg.DBA = true
	dbaCfg.ActAfterSteps = 4

	opt := Options{Seed: 21}
	r1 := runTrain(opt, cfg)
	r2 := runTrain(opt, cfg)
	if runMisses.Load() != 1 {
		t.Fatalf("duplicate request executed: %d misses", runMisses.Load())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cache returned a different result")
	}
	// A different fine-tune variant is a new run but the same pre-phase.
	runTrain(opt, dbaCfg)
	if runMisses.Load() != 2 {
		t.Fatalf("distinct config not executed: %d misses", runMisses.Load())
	}
	if preMisses.Load() != 1 {
		t.Fatalf("pre-training not shared: %d pre misses", preMisses.Load())
	}
	// Requests at a different worker count share the cached result
	// (bit-identity makes that sound).
	runTrain(Options{Seed: 21, Workers: 8}, cfg)
	if runMisses.Load() != 2 {
		t.Fatalf("worker count split the cache: %d misses", runMisses.Load())
	}
	// NoMemo forces a fresh execution and leaves the cache untouched.
	r3 := runTrain(Options{Seed: 21, NoMemo: true}, cfg)
	if runMisses.Load() != 2 {
		t.Fatalf("NoMemo polluted the cache: %d misses", runMisses.Load())
	}
	r3.Config.Workers = r1.Config.Workers
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("memoized and from-scratch runs differ — memoization is not transparent")
	}
}

// TestGridErrDeterministicError checks the sweep wrapper: the lowest-
// indexed failure is the one reported, regardless of scheduling.
func TestGridErrDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := gridErr(Options{Workers: workers}, 50, func(i int) (int, error) {
			if i == 9 || i == 30 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 9 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed failure", workers, err)
		}
	}
	out, err := gridErr(Options{Workers: 4}, 6, func(i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
