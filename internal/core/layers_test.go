package core

import (
	"reflect"
	"strings"
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
)

// TestStepLayeredOverlapWin is the acceptance criterion of the layers
// sweep: with >= 4 layers and a cache under 50% of the model, the
// prefetch-scheduled step is measurably faster than the no-prefetch serial
// reference — layer-k compute hides layer-k+1 transfer.
func TestStepLayeredOverlapWin(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2() // 12 layers
	cache := m.ParamBytes() * 2 / 5

	serial, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: cache})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1: the model is link-bound here (per-layer fetch ~2.9ms vs
	// ~1.1ms forward compute), and a deeper window thrashes a cache this
	// small — the layers-policy sweep charts exactly that cliff.
	sched, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: cache, Prefetch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Layer.PrefetchIssued != 0 {
		t.Fatalf("serial reference issued prefetches: %+v", serial.Layer)
	}
	if sched.Layer.PrefetchIssued == 0 || sched.Layer.PrefetchHits == 0 {
		t.Fatalf("scheduled run overlapped nothing: %+v", sched.Layer)
	}
	if sched.Total() >= serial.Total() {
		t.Fatalf("prefetch won nothing: scheduled %v vs serial %v", sched.Total(), serial.Total())
	}
	if serial.Layer.DemandMisses == 0 || serial.Layer.Evictions == 0 {
		t.Fatalf("undersized cache produced no churn: %+v", serial.Layer)
	}
}

// TestStepLayeredPolicies asserts every eviction policy walks the same
// layers (same hit+miss total) while placing misses differently, and that
// pinning the hot layers removes their refetches.
func TestStepLayeredPolicies(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2()
	cache := m.ParamBytes() / 2
	uses := 2 * int64(m.Layers)

	for _, policy := range []string{"lru", "fifo", "pin"} {
		lc := LayerConfig{CacheBytes: cache, Prefetch: 1, Policy: policy}
		if policy == "pin" {
			lc.Pinned = 2
		}
		res, err := e.StepLayered(m, 4, lc)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Layer.Hits + res.Layer.DemandMisses; got != uses {
			t.Fatalf("%s: %d demand uses, want %d", policy, got, uses)
		}
		if res.Layer.CacheBytes != cache {
			t.Fatalf("%s: cache %d, want %d", policy, res.Layer.CacheBytes, cache)
		}
	}
}

// TestStepLayeredActOffload asserts the long-context mode spills and
// refetches activations: writeback volume appears and the step pays (only)
// Grad-side exposure relative to the param-only schedule.
func TestStepLayeredActOffload(t *testing.T) {
	check.Enable(t)
	e := MustEngine(Config{})
	m := modelzoo.GPT2()
	base := LayerConfig{CacheBytes: m.ParamBytes() / 2, Prefetch: 2, SeqLen: 512}
	off := base
	off.ActOffload = true

	plain, err := e.StepLayered(m, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := e.StepLayered(m, 4, off)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Layer.WritebackBytes != 0 {
		t.Fatalf("param-only schedule wrote activations: %+v", plain.Layer)
	}
	if spill.Layer.WritebackBytes == 0 || spill.Layer.ActStall == 0 {
		t.Fatalf("activation offload moved nothing: %+v", spill.Layer)
	}
	if spill.Grad <= plain.Grad {
		t.Fatalf("activation offload exposed no transfer time: %v vs %v", spill.Grad, plain.Grad)
	}
	// Activation refetches share the staging fetch link with parameter
	// fetches (so Prm may legitimately grow under contention), but compute
	// phases must be untouched.
	if spill.Fwd != plain.Fwd || spill.Bwd != plain.Bwd {
		t.Fatal("activation offload changed the compute phases")
	}
}

// TestStepLayeredDeterministic asserts the layered step is a pure function
// of its inputs.
func TestStepLayeredDeterministic(t *testing.T) {
	e := MustEngine(Config{DBA: true})
	m := modelzoo.BertLargeCased()
	lc := LayerConfig{CacheBytes: m.ParamBytes() / 3, Prefetch: 2, Policy: "fifo", ActOffload: true}
	a, err := e.StepLayered(m, 8, lc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.StepLayered(m, 8, lc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("layered step not deterministic")
	}
}

// TestStepLayeredErrors asserts malformed layer configs fail cleanly.
func TestStepLayeredErrors(t *testing.T) {
	m := modelzoo.GPT2()
	if _, err := MustEngine(Config{Invalidation: true}).StepLayered(m, 4, LayerConfig{}); err == nil {
		t.Fatal("invalidation engine accepted layered scheduling")
	}
	e := MustEngine(Config{})
	if _, err := e.StepLayered(m, 4, LayerConfig{Policy: "mru"}); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("bad policy: err=%v", err)
	}
	if _, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: 100}); err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("undersized cache: err=%v", err)
	}
	for name, lc := range map[string]LayerConfig{
		"negative-prefetch": {Prefetch: -1},
		"negative-cache":    {CacheBytes: -1},
		"negative-seq-len":  {SeqLen: -7},
	} {
		if _, err := e.StepLayered(m, 4, lc); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
