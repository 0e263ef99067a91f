package phases

import (
	"strings"
	"testing"

	"teco/internal/sim"
)

func TestBreakdownCheckZeroTotal(t *testing.T) {
	var b Breakdown
	if err := b.Check(); err != nil {
		t.Fatalf("zero breakdown must satisfy the conservation laws: %v", err)
	}
	if b.Total() != 0 {
		t.Fatalf("zero breakdown total = %v", b.Total())
	}
	if f := b.CommFraction(); f != 0 {
		t.Fatalf("zero-total comm fraction = %v, want 0 (guarded division)", f)
	}
}

func TestBreakdownCheckNegativeDurations(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Breakdown)
	}{
		{"fwd", func(b *Breakdown) { b.Fwd = -1 }},
		{"bwd", func(b *Breakdown) { b.Bwd = -1 }},
		{"grad", func(b *Breakdown) { b.Grad = -1 }},
		{"clip", func(b *Breakdown) { b.Clip = -1 }},
		{"adam", func(b *Breakdown) { b.Adam = -1 }},
		{"param", func(b *Breakdown) { b.Prm = -1 }},
	}
	for _, f := range fields {
		b := Breakdown{Fwd: sim.Millisecond, Bwd: sim.Millisecond}
		f.set(&b)
		err := b.Check()
		if err == nil {
			t.Errorf("negative %s duration passed Check", f.name)
			continue
		}
		if !strings.Contains(err.Error(), f.name) {
			t.Errorf("negative %s reported as %q", f.name, err)
		}
	}
}

func TestStepResultCheckViolations(t *testing.T) {
	valid := StepResult{Breakdown: Breakdown{Fwd: sim.Millisecond}}
	if err := valid.Check(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*StepResult)
	}{
		{"negative link volume", func(r *StepResult) { r.ParamLinkBytes = -1 }},
		{"negative fault counter", func(r *StepResult) { r.Fault.Retries = -1 }},
		{"recovered exceeds poisoned", func(r *StepResult) { r.Fault.Recovered = 1 }},
		{"negative exposed fault latency", func(r *StepResult) { r.Fault.Exposed = -1 }},
		{"negative recovery counter", func(r *StepResult) { r.Recovery.CkptWrites = -1 }},
		{"rollbacks exceed detections", func(r *StepResult) { r.Recovery.Rollbacks = 1 }},
		{"checkpoint bytes without writes", func(r *StepResult) { r.Recovery.CkptBytes = 64 }},
		{"negative breakdown", func(r *StepResult) { r.Grad = -1 }},
	}
	for _, c := range cases {
		r := valid
		c.mut(&r)
		if err := r.Check(); err == nil {
			t.Errorf("%s passed Check", c.name)
		}
	}
}

func TestStepResultCheckAcceptsConsistentFaults(t *testing.T) {
	r := StepResult{
		Breakdown: Breakdown{Fwd: sim.Millisecond, Grad: sim.Microsecond},
		Fault: FaultStats{Retries: 3, ReplayedBytes: 192, Poisoned: 2, Recovered: 2,
			Exposed: sim.Nanosecond},
		Recovery: RecoveryStats{CkptWrites: 2, CkptBytes: 1 << 16,
			SDCDetected: 1, Rollbacks: 1, ReplayedSteps: 4},
	}
	if err := r.Check(); err != nil {
		t.Fatalf("consistent faulted result rejected: %v", err)
	}
}
