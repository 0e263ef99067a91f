package core

import (
	"sync"
	"testing"

	"teco/internal/modelzoo"
)

// TestPlanesFoldEachResultOnce: every completed plane call moves the
// process-wide totals by exactly the block it returned — the plane's own
// counts, folded once — while plain Step and a plane call that errors move
// nothing. A tiered run demotes through the residency tracker, and the
// layers block must not see those demotions as layer evictions.
func TestPlanesFoldEachResultOnce(t *testing.T) {
	m := modelzoo.GPT2()
	e := MustEngine(Config{DBA: true})
	want := Planes()
	expect := func(what string) {
		t.Helper()
		if got := Planes(); got != want {
			t.Fatalf("after %s:\n got %+v\nwant %+v", what, got, want)
		}
	}

	e.Step(m, 4)
	expect("Step")

	lr, err := e.StepLayered(m, 4, LayerConfig{CacheBytes: m.ParamBytes() / 2, Prefetch: 2, ActOffload: true, SeqLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	l := lr.Layer
	if l.Evictions == 0 || l.EvictedBytes == 0 || l.PrefetchHits == 0 || l.WritebackBytes == 0 {
		t.Fatalf("layered step exercised too little: %+v", l)
	}
	wl := &want.Layers
	wl.DemandMisses += l.DemandMisses
	wl.Hits += l.Hits
	wl.PrefetchHits += l.PrefetchHits
	wl.PrefetchIssued += l.PrefetchIssued
	wl.Evictions += l.Evictions
	wl.EvictedBytes += l.EvictedBytes
	wl.LoadedBytes += l.FetchBytes
	wl.WritebackBytes += l.WritebackBytes
	wl.SchedSteps++
	expect("StepLayered")

	tr, _, err := e.RunTiered(m, 4, TierConfig{DRAMBytes: 3 * m.ParamBytes() / 4, OptSlots: true, MigrateBudget: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := tr.Tier
	if ts.DemotedBytes == 0 || ts.FarAccesses == 0 || ts.Steps != TierSteps {
		t.Fatalf("tiered run exercised too little: %+v", ts)
	}
	wt := &want.Tiering
	wt.FastHits += ts.FastHits
	wt.FarAccesses += ts.FarAccesses
	wt.PlanSteps += ts.Steps
	wt.Migrations += ts.Migrations
	wt.PromotedBytes += ts.PromotedBytes
	wt.DemotedBytes += ts.DemotedBytes
	wt.Deferred += ts.Deferred
	expect("RunTiered")

	// Killing a port with no spare exhausts the failover probes and
	// degrades the step.
	fr, err := e.StepFabric(m, 16, FabricConfig{Replicas: 4, KillPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	fb := fr.Fabric
	if fb.PortsDown == 0 || fb.FailoverRetries == 0 {
		t.Fatalf("killing fabric step exercised too little: %+v", fb)
	}
	want.Fabric.PortsDown += fb.PortsDown
	want.Fabric.Failovers += fb.Failovers
	want.Fabric.FailoverRetries += fb.FailoverRetries
	expect("StepFabric")

	// The lone replica's ports die: the switch counts the kill, but the
	// call fails, so nothing is folded.
	if _, err := e.StepFabric(m, 16, FabricConfig{Replicas: 1, KillPort: 1}); err == nil {
		t.Fatal("killing the only replica succeeded")
	}
	expect("a failed StepFabric")
}

// TestPlanesFoldConcurrent: plane calls on concurrent sweep points each
// fold once.
func TestPlanesFoldConcurrent(t *testing.T) {
	m := modelzoo.GPT2()
	e := MustEngine(Config{})
	lc := LayerConfig{CacheBytes: m.ParamBytes() / 2, Prefetch: 1}
	one, err := e.StepLayered(m, 4, lc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	before := Planes().Layers
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.StepLayered(m, 4, lc); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after := Planes().Layers
	if got := after.SchedSteps - before.SchedSteps; got != n {
		t.Fatalf("%d concurrent steps folded %d times", n, got)
	}
	if got, want := after.Hits-before.Hits, n*one.Layer.Hits; got != want {
		t.Fatalf("%d concurrent steps folded %d hits, want %d", n, got, want)
	}
}
