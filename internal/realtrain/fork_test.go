package realtrain

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// forkBase is a short plain run per architecture: long enough to sample,
// pre-train and branch at several steps, short enough for tier-1.
func forkBase(arch string) Config {
	return Config{Steps: 12, PreSteps: 8, Seed: 9, SampleEvery: 3, Arch: arch}
}

// TestForkMatchesFreshRun is Fork's exactness contract: a run forked from
// its lineage's trunk at step k and stepped to the end is reflect.DeepEqual
// to the same config run from scratch, for every architecture, fork step
// k ∈ {0, mid, Steps} and activation act ∈ {0, k, Steps, > Steps} with
// k <= act (plus the plain run itself, and a fork from a DBA trunk that has
// not activated yet).
func TestForkMatchesFreshRun(t *testing.T) {
	for _, arch := range []string{"mlp", "attention", "stack"} {
		base := forkBase(arch)
		S := base.Steps
		fresh := map[string]Result{}
		want := func(cfg Config) Result {
			key := fmt.Sprint(cfg)
			if r, ok := fresh[key]; ok {
				return r
			}
			fresh[key] = Run(cfg)
			return fresh[key]
		}
		pre, err := Pretrain(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, S / 2, S} {
			trunk, err := NewTrainerFromPre(base, pre)
			if err != nil {
				t.Fatal(err)
			}
			runTo(t, trunk, k)
			var cfgs []Config
			for _, act := range []int{0, k, S, S + 5} {
				if act < k {
					continue
				}
				c := base
				c.DBA, c.ActAfterSteps = true, act
				cfgs = append(cfgs, c)
			}
			cfgs = append(cfgs, base)
			for _, cfg := range cfgs {
				f, err := trunk.Fork(cfg)
				if err != nil {
					t.Fatalf("%s k=%d act=%d: %v", arch, k, cfg.ActAfterSteps, err)
				}
				runTo(t, f, S)
				if got := f.Result(); !reflect.DeepEqual(got, want(cfg)) {
					t.Fatalf("%s: fork at %d of %+v differs from a fresh run", arch, k, cfg)
				}
			}
		}
		// A DBA trunk before its activation is still the lineage's state.
		dbaTrunk := base
		dbaTrunk.DBA, dbaTrunk.ActAfterSteps = true, S/2
		tr, err := NewTrainerFromPre(dbaTrunk, pre)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, tr, S/2)
		f, err := tr.Fork(base)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, f, S)
		if !reflect.DeepEqual(f.Result(), want(base)) {
			t.Fatalf("%s: fork of a not-yet-active DBA trunk differs from the plain run", arch)
		}
	}
}

// TestForkRefusals: Fork errors rather than continue a state the branch
// could not have reached — past the branch's activation step, from a
// trainer whose own DBA is active, or under any changed numerics knob.
func TestForkRefusals(t *testing.T) {
	base := forkBase("mlp")
	tr, err := NewTrainer(base)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, tr, 4)
	reduced := func(act int) Config {
		c := base
		c.DBA, c.ActAfterSteps = true, act
		return c
	}
	cases := map[string]struct {
		cfg  Config
		want string
	}{
		"past activation": {reduced(3), "past the branch's activation"},
		"Steps":           {func() Config { c := base; c.Steps++; return c }(), "differs"},
		"Seed":            {func() Config { c := base; c.Seed++; return c }(), "differs"},
		"FineLR":          {func() Config { c := base; c.FineLR = 2e-5; return c }(), "differs"},
		"SampleEvery":     {func() Config { c := base; c.SampleEvery = 4; return c }(), "differs"},
		"Arch":            {func() Config { c := base; c.Arch = "attention"; return c }(), "differs"},
	}
	for name, tc := range cases {
		if _, err := tr.Fork(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fork error = %v, want %q", name, err, tc.want)
		}
	}
	// Scheduling knobs are not numerics: a fork may change them.
	sched := reduced(4)
	sched.Workers, sched.SDCChecks = 3, true
	if _, err := tr.Fork(sched); err != nil {
		t.Errorf("fork across Workers/SDCChecks: %v", err)
	}

	active, err := NewTrainer(reduced(2))
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, active, 4)
	if _, err := active.Fork(base); err == nil || !strings.Contains(err.Error(), "activated at step 2") {
		t.Errorf("fork of a DBA-active trunk: %v", err)
	}
}

// TestForkSamplesDoNotAlias: a branch appends to its own copy of the
// samples, so neither the trunk's later samples nor the branch's reach the
// other.
func TestForkSamplesDoNotAlias(t *testing.T) {
	base := forkBase("mlp")
	trunk, err := NewTrainer(base)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at steps 0, 3 and 6 leave the trunk's slice with spare
	// capacity, so a shared backing array would let the trunk's step-9
	// sample overwrite the branch's.
	runTo(t, trunk, 7)
	if len(trunk.samples) == cap(trunk.samples) {
		t.Fatalf("samples len %d = cap: the test would not see aliasing", len(trunk.samples))
	}
	red := base
	red.DBA, red.ActAfterSteps = true, 7
	f, err := trunk.Fork(red)
	if err != nil {
		t.Fatal(err)
	}
	runTo(t, f, 10)
	runTo(t, trunk, 10)
	fs, ts := f.samples, trunk.samples
	if len(fs) != 4 || len(ts) != 4 || fs[3].Step != 9 || ts[3].Step != 9 {
		t.Fatalf("samples: fork %+v, trunk %+v", fs, ts)
	}
	if !fs[3].DBAActive || ts[3].DBAActive {
		t.Fatalf("step-9 samples crossed between branch and trunk: fork %+v trunk %+v", fs[3], ts[3])
	}
}
