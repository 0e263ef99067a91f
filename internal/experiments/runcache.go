package experiments

import (
	"sync"
	"sync/atomic"

	"teco/internal/realtrain"
)

// The experiment suite asks for the same fine-tuning runs many times: Fig 2,
// Fig 10, Table V and the time-to-loss sweep all start from the identical
// baseline config, and every DBA variant of a seed shares its pre-training
// phase. Because the parallel trainer is bit-identical at every worker count
// (determinism_test.go in internal/realtrain) and NewTrainer is Pretrain +
// NewTrainerFromPre by construction, a run executed once can stand in for
// every duplicate request — the memoization below is a pure scheduling
// optimization with no observable effect on any table.

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

var (
	cacheMu sync.Mutex
	runTab  = map[runKey]*cacheEntry[realtrain.Result]{}
	preTab  = map[preKey]*cacheEntry[*realtrain.PreState]{}
	// Miss counters: how many runs / pre-trainings actually executed.
	// The memoization tests assert the dedup through these.
	runMisses atomic.Int64
	preMisses atomic.Int64
)

func runEntry(k runKey) *cacheEntry[realtrain.Result] {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	e, ok := runTab[k]
	if !ok {
		e = &cacheEntry[realtrain.Result]{}
		runTab[k] = e
	}
	return e
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

// runTrain executes (or recalls) the fine-tuning run for cfg. The option's
// Workers knob rides along into the trainer's hot paths; NoMemo bypasses
// the cache entirely and runs from scratch.
func runTrain(opt Options, cfg realtrain.Config) realtrain.Result {
	cfg.Workers = opt.Workers
	if opt.NoMemo {
		return realtrain.Run(cfg)
	}
	e := runEntry(canonicalRun(cfg))
	e.once.Do(func() {
		runMisses.Add(1)
		tr, err := realtrain.NewTrainerFromPre(cfg, pretrained(cfg))
		if err != nil {
			panic(err)
		}
		for !tr.Done() {
			if err := tr.Step(); err != nil {
				panic(err)
			}
		}
		e.val = tr.Result()
	})
	return e.val
}
