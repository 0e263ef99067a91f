package experiments

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"teco/internal/parallel"
	"teco/internal/realtrain"
)

// The experiment suite asks for the same fine-tuning runs many times, and
// for many runs that share a prefix. The run memo below serves both:
//
//   - Duplicates. Fig 2, Fig 10, Table V and the time-to-loss sweep all
//     request the identical baseline config; every run of a seed shares its
//     pre-training phase. A run executes once and its Result stands in for
//     every request, at any worker count (the trainer is bit-identical at
//     every worker count, and NewTrainer is Pretrain + NewTrainerFromPre by
//     construction).
//   - Prefixes. A TECO-Reduction run is its plain TECO-CXL run until DBA
//     activates, bit for bit, so runs that differ only in DBA,
//     ActAfterSteps and DirtyBytes form a lineage (realtrain.Config.Lineage)
//     whose plain trunk each run leaves at its branch step
//     (Config.BranchStep). Each registry row declares the runs its
//     generator will request; ByID and All plan them before the generators
//     start: the trunk of each lineage is walked once, in ascending branch
//     step order, and each branch is forked off it (realtrain.Trainer.Fork)
//     and finished as a pool task. At seed 42 that turns `all`'s 10440
//     fine-tuning steps into 7140.
//
// Either way the memoization is a pure scheduling optimization with no
// observable effect on any table; -no-memo runs every request from scratch
// and is the oracle. A request nobody declared (the tune-act tuner's
// adaptive calls) runs from the shared PreState, as it always has.

// runKey is the canonical identity of a fine-tuning run: the effective
// (defaulted) config with the scheduling knob zeroed, so requests at
// different worker counts share one cached result.
type runKey realtrain.Config

func canonicalRun(cfg realtrain.Config) runKey {
	c := cfg.WithDefaults()
	c.Workers = 0
	return runKey(c)
}

// preKey identifies a pre-training phase: exactly the knobs
// realtrain.Pretrain depends on.
type preKey struct {
	seed     int64
	batch    int
	lr, clip float64
	hidden   int
	preSteps int
	arch     string
}

// cacheEntry is a single-flight slot: the first requester executes, every
// concurrent duplicate blocks on the same Once and shares the value.
type cacheEntry[T any] struct {
	once sync.Once
	val  T
}

// runSlot is a run's memo entry. Whoever claims it (a plan's branch or a
// request) must fill it or release it; every other requester waits on
// ready and, if the claim was released unfilled, tries again.
type runSlot struct {
	ready chan struct{} // closed by fill or release
	ok    bool          // val holds the run's result
	val   realtrain.Result
}

var (
	cacheMu sync.Mutex
	runTab  = map[runKey]*runSlot{}
	preTab  = map[preKey]*cacheEntry[*realtrain.PreState]{}
	// Miss counters: how many runs / pre-trainings actually executed.
	// The memoization tests assert the dedup through these.
	runMisses atomic.Int64
	preMisses atomic.Int64
	// planSteps counts the fine-tuning steps plans executed, trunks and
	// branches together.
	planSteps atomic.Int64
)

// claim returns k's slot and whether the caller now owns it. With
// mayClaim false an absent slot is not created and claim returns nil.
func claim(k runKey, mayClaim bool) (*runSlot, bool) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if s, ok := runTab[k]; ok {
		return s, false
	}
	if !mayClaim {
		return nil, false
	}
	s := &runSlot{ready: make(chan struct{})}
	runTab[k] = s
	return s, true
}

func (s *runSlot) fill(r realtrain.Result) {
	runMisses.Add(1)
	s.val, s.ok = r, true
	close(s.ready)
}

// release gives an unfilled claim back, so the next requester runs it.
func release(k runKey, s *runSlot) {
	cacheMu.Lock()
	delete(runTab, k)
	cacheMu.Unlock()
	close(s.ready)
}

func preEntry(k preKey) *cacheEntry[*realtrain.PreState] {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	e, ok := preTab[k]
	if !ok {
		e = &cacheEntry[*realtrain.PreState]{}
		preTab[k] = e
	}
	return e
}

// pretrained returns the (memoized) pre-training state for cfg's pre-phase.
func pretrained(cfg realtrain.Config) *realtrain.PreState {
	c := cfg.WithDefaults()
	e := preEntry(preKey{c.Seed, c.Batch, c.LR, c.ClipNorm, c.Hidden, c.PreSteps, c.Arch})
	e.once.Do(func() {
		preMisses.Add(1)
		pre, err := realtrain.Pretrain(cfg)
		if err != nil {
			panic(err) // static experiment configs only, like realtrain.Run
		}
		e.val = pre
	})
	return e.val
}

// fromPre returns a trainer for cfg starting from its shared pre-training
// state.
func fromPre(cfg realtrain.Config) *realtrain.Trainer {
	tr, err := realtrain.NewTrainerFromPre(cfg, pretrained(cfg))
	if err != nil {
		panic(err)
	}
	return tr
}

func step(tr *realtrain.Trainer) {
	if err := tr.Step(); err != nil {
		panic(err)
	}
}

// runTrain executes (or recalls) the fine-tuning run for cfg. The option's
// Workers knob rides along into the trainer's hot paths; NoMemo bypasses
// the cache entirely and runs from scratch. Under a cancelled Ctx it
// returns the memoized result if there is one and the zero Result
// otherwise, like an unreached grid point.
func runTrain(opt Options, cfg realtrain.Config) realtrain.Result {
	cfg.Workers = opt.Workers
	if opt.NoMemo {
		return realtrain.Run(cfg)
	}
	ctx := opt.context()
	k := canonicalRun(cfg)
	for {
		s, mine := claim(k, ctx.Err() == nil)
		if s == nil {
			return realtrain.Result{}
		}
		if mine {
			defer func() {
				if !s.ok {
					release(k, s)
				}
			}()
			tr := fromPre(cfg)
			for !tr.Done() {
				step(tr)
			}
			s.fill(tr.Result())
			return s.val
		}
		select {
		case <-s.ready:
			if s.ok {
				return s.val
			}
		case <-ctx.Done():
			return realtrain.Result{}
		}
	}
}

// branch is one declared run of a lineage: its canonical config, the step
// at which it leaves the trunk, and the memo slot a plan claimed for it.
type branch struct {
	key  runKey
	at   int
	slot *runSlot
}

// lineage is a plain trunk config and the runs that branch off it, in
// ascending branch step; next indexes the first branch not yet forked.
type lineage struct {
	trunk    realtrain.Config
	branches []branch
	next     int
}

// planRuns groups the distinct runs of cfgs into lineages, in order of
// first appearance, each with its branches sorted by branch step (stable,
// so equal steps keep declaration order).
func planRuns(cfgs []realtrain.Config) []*lineage {
	var out []*lineage
	byTrunk := map[runKey]*lineage{}
	seen := map[runKey]bool{}
	for _, cfg := range cfgs {
		k := canonicalRun(cfg)
		if seen[k] {
			continue
		}
		seen[k] = true
		c := realtrain.Config(k)
		tk := canonicalRun(c.Lineage())
		l := byTrunk[tk]
		if l == nil {
			l = &lineage{trunk: realtrain.Config(tk)}
			byTrunk[tk] = l
			out = append(out, l)
		}
		l.branches = append(l.branches, branch{key: k, at: c.BranchStep()})
	}
	for _, l := range out {
		slices.SortStableFunc(l.branches, func(a, b branch) int { return cmp.Compare(a.at, b.at) })
	}
	return out
}

// startPlan claims the memo slots of every run in cfgs that no one has
// claimed yet and executes them in the background as a plan (runPlan).
// The returned wait blocks until every claimed slot is filled or, when
// opt.Ctx is cancelled, released. Under NoMemo there is no plan.
func startPlan(opt Options, cfgs []realtrain.Config) (wait func()) {
	if opt.NoMemo || len(cfgs) == 0 {
		return func() {}
	}
	var lins []*lineage
	for _, l := range planRuns(cfgs) {
		claimed := l.branches[:0]
		for _, b := range l.branches {
			if s, mine := claim(b.key, true); mine {
				b.slot = s
				claimed = append(claimed, b)
			}
		}
		if l.branches = claimed; len(claimed) > 0 {
			lins = append(lins, l)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runPlan(opt, lins)
	}()
	return func() { <-done }
}

// runPlan walks every lineage's trunk once and finishes each branch from a
// fork of it. The plan's training runs on Resolve(opt.Workers) CPU tokens:
// a trunk holds one while it steps, hands it to each branch it forks (so a
// forked state is never left waiting for a CPU, and is freed once its
// branch has finished) and waits for another to go on. At most that many
// lineages are walked at once, so the plan keeps at most twice as many
// trainers live. A cancelled Ctx stops every trunk and branch at the next
// step and releases each slot not filled.
func runPlan(opt Options, lins []*lineage) {
	ctx := opt.context()
	w := parallel.Resolve(opt.Workers)
	cpu := make(chan struct{}, w)
	var branches sync.WaitGroup
	parallel.Run(ctx, w, len(lins), func(ctx context.Context, i int) (struct{}, error) {
		walk(ctx, opt, lins[i], cpu, &branches)
		return struct{}{}, nil
	})
	branches.Wait()
	for _, l := range lins {
		for _, b := range l.branches[l.next:] {
			release(b.key, b.slot)
		}
	}
}

// walk steps l's trunk through its branch steps, forking each branch onto
// the CPU token the trunk holds.
func walk(ctx context.Context, opt Options, l *lineage, cpu chan struct{}, branches *sync.WaitGroup) {
	if !acquire(ctx, cpu) {
		return
	}
	trunk := l.trunk
	trunk.Workers = opt.Workers
	tr := fromPre(trunk)
	for l.next < len(l.branches) {
		b := l.branches[l.next]
		for tr.StepCount() < b.at {
			if ctx.Err() != nil {
				<-cpu
				return
			}
			step(tr)
			planSteps.Add(1)
		}
		cfg := realtrain.Config(b.key)
		cfg.Workers = opt.Workers
		f, err := tr.Fork(cfg)
		if err != nil {
			panic(err) // planRuns orders branches so every fork is legal
		}
		l.next++
		branches.Add(1)
		go func() {
			defer branches.Done()
			defer func() { <-cpu }()
			finish(ctx, f, b)
		}()
		if l.next < len(l.branches) && !acquire(ctx, cpu) {
			return
		}
	}
}

// finish steps a forked branch to its end and fills its slot, or releases
// the slot if ctx is cancelled first.
func finish(ctx context.Context, f *realtrain.Trainer, b branch) {
	for !f.Done() {
		if ctx.Err() != nil {
			release(b.key, b.slot)
			return
		}
		step(f)
		planSteps.Add(1)
	}
	b.slot.fill(f.Result())
}

// acquire takes a CPU token, or reports false once ctx is cancelled.
func acquire(ctx context.Context, cpu chan struct{}) bool {
	select {
	case cpu <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}
