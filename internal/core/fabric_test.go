package core

import (
	"testing"

	"teco/internal/conformance/check"
	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// More replicas shard the batch: per-replica compute shrinks, so the
// compute phases can only get faster while the fabric fences stay correct
// (total never negative, all breakdown laws hold via res.Check).
func TestStepFabricScaling(t *testing.T) {
	check.Enable(t)
	m := modelzoo.BertLargeCased()
	e := MustEngine(Config{DBA: true})
	var prevFwd sim.Time
	for i, replicas := range []int{1, 2, 4, 8} {
		res, err := e.StepFabric(m, 16, FabricConfig{Replicas: replicas, HopLatency: 100 * sim.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		if i > 0 && res.Fwd > prevFwd {
			t.Fatalf("replicas=%d: forward time grew from %v to %v", replicas, prevFwd, res.Fwd)
		}
		prevFwd = res.Fwd
		if res.Fabric.SpineBytes == 0 {
			t.Fatalf("replicas=%d: no spine traffic", replicas)
		}
		// Each replica pushes a full gradient and receives a full parameter
		// image: link volume scales with the replica count.
		if res.GradLinkBytes != m.GradBytes()*int64(replicas) {
			t.Fatalf("replicas=%d: grad bytes %d, want %d", replicas, res.GradLinkBytes, m.GradBytes()*int64(replicas))
		}
	}
}

// Oversubscribing the spine (HostPorts < Replicas) can only slow the step
// and must show up as spine queueing.
func TestStepFabricOversubscription(t *testing.T) {
	m := modelzoo.BertLargeCased()
	e := MustEngine(Config{})
	full, err := e.StepFabric(m, 16, FabricConfig{Replicas: 8})
	if err != nil {
		t.Fatal(err)
	}
	over, err := e.StepFabric(m, 16, FabricConfig{Replicas: 8, HostPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if over.Total() < full.Total() {
		t.Fatalf("8:1 oversubscribed step %v faster than non-blocking %v", over.Total(), full.Total())
	}
	if over.Fabric.SpineQueued <= full.Fabric.SpineQueued {
		t.Fatalf("oversubscription queued %v, non-blocking %v", over.Fabric.SpineQueued, full.Fabric.SpineQueued)
	}
}

// Kill without a spare: the step completes degraded — one replica lost, its
// shard redistributed, all conservation laws intact.
func TestStepFabricKillDegrades(t *testing.T) {
	check.Enable(t)
	m := modelzoo.BertLargeCased()
	e := MustEngine(Config{DBA: true})
	ref, err := e.StepFabric(m, 16, FabricConfig{Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.StepFabric(m, 16, FabricConfig{Replicas: 4, KillPort: 2})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.Fabric
	if !fb.Degraded || fb.LostReplicas != 1 || fb.PortsDown != 2 {
		t.Fatalf("kill without spare: %+v", fb)
	}
	if fb.Redistributed == 0 {
		t.Fatalf("lost shard never redistributed: %+v", fb)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	// Detection plus recomputation must cost time versus the clean step.
	if res.Total() <= ref.Total() {
		t.Fatalf("degraded step %v not slower than clean %v", res.Total(), ref.Total())
	}
}

// Kill with a spare: the send fails over — nothing lost, not degraded, but
// the failover and its detection delay are visible.
func TestStepFabricKillFailsOver(t *testing.T) {
	check.Enable(t)
	m := modelzoo.BertLargeCased()
	e := MustEngine(Config{})
	ref, err := e.StepFabric(m, 16, FabricConfig{Replicas: 4, SparePorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.StepFabric(m, 16, FabricConfig{Replicas: 4, SparePorts: 1, KillPort: 1})
	if err != nil {
		t.Fatal(err)
	}
	fb := res.Fabric
	if fb.Degraded || fb.LostReplicas != 0 {
		t.Fatalf("spare did not prevent degradation: %+v", fb)
	}
	if fb.Failovers != 2 { // one per direction
		t.Fatalf("failovers %d, want 2: %+v", fb.Failovers, fb)
	}
	if res.Total() <= ref.Total() {
		t.Fatalf("failover step %v not slower than clean %v", res.Total(), ref.Total())
	}
}

func TestStepFabricValidation(t *testing.T) {
	m := modelzoo.BertLargeCased()
	e := MustEngine(Config{})
	for name, fc := range map[string]FabricConfig{
		"zero-replicas": {Replicas: 0},
		"batch-small":   {Replicas: 32},
		"kill-range":    {Replicas: 2, KillPort: 7},
	} {
		if _, err := e.StepFabric(m, 16, fc); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	inval := MustEngine(Config{Invalidation: true})
	if _, err := inval.StepFabric(m, 16, FabricConfig{Replicas: 2}); err == nil {
		t.Fatal("invalidation protocol accepted on the fabric path")
	}
	// Kill of the only replica with no spare: every shard is lost — error,
	// never a silent empty step.
	if _, err := e.StepFabric(m, 16, FabricConfig{Replicas: 1, KillPort: 1}); err == nil {
		t.Fatal("all-replicas-lost step succeeded")
	}
}
