package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"teco/internal/realtrain"
)

// steps is the number of fine-tuning steps executing l takes: the trunk up
// to its last branch step, then every branch from its own to the end.
func (l *lineage) steps() int {
	n := l.branches[len(l.branches)-1].at
	for _, b := range l.branches {
		n += b.key.Steps - b.at
	}
	return n
}

// planCost returns the fine-tuning steps cfgs cost run one by one (each
// distinct run from its pre-trained state) and as a plan, per lineage.
func planCost(cfgs []realtrain.Config) (separate int, planned []int) {
	for _, l := range planRuns(cfgs) {
		for _, b := range l.branches {
			separate += b.key.Steps
		}
		planned = append(planned, l.steps())
	}
	return separate, planned
}

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// TestPlannedFineTuneSteps pins, without training, what the plan saves:
// `all` at seed 42 fine-tunes 7140 steps instead of 10440 (the seed-42
// lineage 800 trunk + 2700 branch steps, Table V's seeds 142/242/342 1200
// each, the recovery run 40), and fig13 alone 3500 instead of 4800.
func TestPlannedFineTuneSteps(t *testing.T) {
	opt := Options{Seed: 42}
	var inAll []*experiment
	for i := range registry {
		if registry[i].inAll {
			inAll = append(inAll, &registry[i])
		}
	}
	separate, planned := planCost(declaredRuns(opt, inAll...))
	if separate != 10440 || sum(planned) != 7140 || !reflect.DeepEqual(planned, []int{3500, 1200, 1200, 1200, 40}) {
		t.Errorf("all: %d steps separately, planned %v (sum %d); want 10440, [3500 1200 1200 1200 40] = 7140", separate, planned, sum(planned))
	}
	separate, planned = planCost(declaredRuns(opt, lookup("fig13")))
	if separate != 4800 || !reflect.DeepEqual(planned, []int{3500}) {
		t.Errorf("fig13: %d steps separately, planned %v; want 4800, [3500]", separate, planned)
	}
}

// forget drops cfgs' memo entries, so a test can plan them afresh at any
// -count.
func forget(cfgs []realtrain.Config) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for _, c := range cfgs {
		delete(runTab, canonicalRun(c))
	}
}

// TestForestMatchesFreshRuns executes a small multi-branch plan — two
// lineages, branches at activation 0, 3, 12 (= Steps) and 20 (> Steps),
// the plain run, and a second DirtyBytes at a shared branch step — and
// checks it runs exactly its planned steps and that every result is
// reflect.DeepEqual to realtrain.Run of its config. Concurrent branches
// share their lineage's dataset, so under -race this also shows that
// nothing writes to it.
func TestForestMatchesFreshRuns(t *testing.T) {
	var cfgs []realtrain.Config
	for _, seed := range []int64{31, 32} {
		base := realtrain.Config{Steps: 12, PreSteps: 6, Hidden: 24, Seed: seed, SampleEvery: 4}
		cfgs = append(cfgs, base)
		for _, act := range []int{0, 3, 12, 20} {
			c := base
			c.DBA, c.ActAfterSteps = true, act
			cfgs = append(cfgs, c)
		}
		c := base
		c.DBA, c.ActAfterSteps, c.DirtyBytes = true, 3, 3
		cfgs = append(cfgs, c)
	}
	forget(cfgs)
	_, planned := planCost(cfgs)
	opt := Options{Seed: 31, Workers: 2}
	steps, runs := planSteps.Load(), runMisses.Load()
	startPlan(opt, cfgs)()
	if got := planSteps.Load() - steps; got != int64(sum(planned)) {
		t.Fatalf("plan executed %d fine-tuning steps, planned %v", got, planned)
	}
	if got := runMisses.Load() - runs; got != int64(len(cfgs)) {
		t.Fatalf("plan filled %d runs, want %d", got, len(cfgs))
	}
	for _, cfg := range cfgs {
		got := runTrain(opt, cfg)
		want := cfg
		want.Workers = opt.Workers
		if !reflect.DeepEqual(got, realtrain.Run(want)) {
			t.Fatalf("planned run %+v differs from realtrain.Run", cfg)
		}
	}
	if got := runMisses.Load() - runs; got != int64(len(cfgs)) {
		t.Fatalf("requests after the plan executed %d more runs", got-int64(len(cfgs)))
	}
}

// claimedUnfilled lists the runs of cfgs whose memo slot is claimed but
// neither filled nor released.
func claimedUnfilled(cfgs []realtrain.Config) []realtrain.Config {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	var out []realtrain.Config
	for _, c := range cfgs {
		if s := runTab[canonicalRun(c)]; s != nil {
			select {
			case <-s.ready:
			default:
				out = append(out, c)
			}
		}
	}
	return out
}

// TestCancelledPlanReleasesClaims cancels table5 while its plan is
// training, then runs it again to completion: the cancelled ByID must
// leave no memo slot claimed but unfilled, or the second run would wait
// on it forever.
func TestCancelledPlanReleasesClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("real training in -short mode")
	}
	opt := Options{Seed: 3, Workers: 2}
	cfgs := table5Runs(opt)
	forget(cfgs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel once some trunk has passed a 400-step branch point, so both
	// a trunk and a forked branch are training when the cancel lands.
	start := planSteps.Load()
	returned := make(chan struct{})
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for planSteps.Load() < start+1000 {
			select {
			case <-tick.C:
			case <-returned:
				return
			}
		}
		cancel()
	}()
	cancelled := opt
	cancelled.Ctx = ctx
	_, err := ByID("table5", cancelled)
	close(returned)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil {
		t.Fatal("table5 finished before the plan was cancelled")
	}
	if left := claimedUnfilled(cfgs); len(left) > 0 {
		t.Fatalf("cancelled plan left %d claimed, unfilled slots: %+v", len(left), left)
	}
	tabs, err := ByID("table5", opt)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(tabs[0].Rows); rows != 9 {
		t.Fatalf("table5 rows = %d", rows)
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for _, c := range cfgs {
		if s := runTab[canonicalRun(c)]; s == nil || !s.ok {
			t.Fatalf("run %+v not memoized after a completed table5", c)
		}
	}
}
