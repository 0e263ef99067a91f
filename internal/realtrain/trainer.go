package realtrain

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"teco/internal/checkpoint"
	"teco/internal/conformance/check"
	"teco/internal/dba"
	"teco/internal/optim"
	"teco/internal/tensor"
)

// Config controls a fine-tuning run.
type Config struct {
	Steps    int     // training steps (default 1000)
	Batch    int     // minibatch size (default 32)
	LR       float64 // pre-training ADAM learning rate (default 3e-3)
	ClipNorm float64 // global-norm clip (default 1.0)
	Hidden   int     // MLP hidden width (default 128)
	Seed     int64   // RNG seed for data + init + batches
	PreSteps int     // "pre-training" steps before fine-tuning (default 1500)
	FineLR   float64 // fine-tuning LR (default 1e-5, small updates)
	// DBA switches on the dirty-byte parameter path.
	DBA bool
	// ActAfterSteps is `act_aft_steps`; ignored when !DBA. Negative
	// selects the paper default (500).
	ActAfterSteps int
	// DirtyBytes is `dirty_bytes` (default 2).
	DirtyBytes int
	// SampleEvery controls how often byte-change distributions and loss
	// are recorded (default every 10 steps).
	SampleEvery int
	// Arch selects the proxy architecture: "mlp" (default), "attention"
	// (single-head self-attention classifier) or "stack" (an N-layer
	// residual transformer).
	Arch string
	// Layers is the block count of the "stack" arch (default 2); other
	// architectures ignore it.
	Layers int
	// SDCChecks enables the silent-data-corruption guards: per-chunk
	// CRC-32C sums of every resident tensor validated at every step
	// boundary, a merge post-condition after each DBA merge, and a NaN/Inf
	// scan of the master parameters after each ADAM step. The guards are
	// read-only — they never change the numerics — but cost two CRC passes
	// per resident tensor per step, so they default off for the accuracy
	// experiments and on inside core.Session.
	SDCChecks bool
	// Workers parallelizes the per-step hot loops (ADAM update, dirty-byte
	// merge and scan, SDC checksum guards) over chunked
	// goroutines. 0 or 1 is the serial fallback; negative uses GOMAXPROCS.
	// Purely a scheduling knob: every parallel loop is element-wise or
	// combines with exact arithmetic, so the run is bit-identical at any
	// worker count (asserted by determinism_test.go) and Workers is
	// excluded from the config fingerprint — a snapshot taken at one
	// worker count restores at any other.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 1000
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 1.0
	}
	if c.Hidden == 0 {
		c.Hidden = 128
	}
	if c.PreSteps == 0 {
		c.PreSteps = 1500
	}
	if c.FineLR == 0 {
		c.FineLR = 1e-5
	}
	if c.DirtyBytes == 0 {
		c.DirtyBytes = dba.DefaultDirtyBytes
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10
	}
	if c.Arch == "" {
		c.Arch = "mlp"
	}
	if c.Arch == "stack" && c.Layers == 0 {
		c.Layers = 2
	}
	return c
}

// validate rejects a defaulted configuration the trainer cannot run as
// written: a size or step count that would panic or silently train
// something else, a learning rate or clip norm that is negative or not
// finite, a dirty-byte length outside 1..4, or an unknown architecture.
// Negative ActAfterSteps stays legal: it selects the paper default.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Steps", c.Steps}, {"Batch", c.Batch}, {"Hidden", c.Hidden}, {"PreSteps", c.PreSteps}, {"SampleEvery", c.SampleEvery}} {
		if f.v < 1 {
			return fmt.Errorf("realtrain: %s %d must be positive", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"LR", c.LR}, {"FineLR", c.FineLR}, {"ClipNorm", c.ClipNorm}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("realtrain: %s %v must be finite and non-negative", f.name, f.v)
		}
	}
	if c.DirtyBytes < 1 || c.DirtyBytes > dba.WordSize {
		return fmt.Errorf("realtrain: DirtyBytes %d outside 1..%d", c.DirtyBytes, dba.WordSize)
	}
	switch c.Arch {
	case "mlp", "attention":
	case "stack":
		if c.Layers < 1 {
			return fmt.Errorf("realtrain: stack Layers %d must be positive", c.Layers)
		}
	default:
		return fmt.Errorf("realtrain: unknown architecture %q", c.Arch)
	}
	return nil
}

// tagField is one numerics-relevant Config field as configTag hashes it.
type tagField struct {
	name string
	val  any
}

// tagFields returns c's numerics-relevant fields in hash order. Every
// Config field is named either here or in tagExcluded
// (TestConfigTagCoversEveryField); a new field goes on the end of one of
// the two lists.
func (c Config) tagFields() []tagField {
	return []tagField{
		{"Steps", c.Steps}, {"Batch", c.Batch}, {"LR", c.LR}, {"ClipNorm", c.ClipNorm},
		{"Hidden", c.Hidden}, {"Seed", c.Seed}, {"PreSteps", c.PreSteps}, {"FineLR", c.FineLR},
		{"DBA", c.DBA}, {"ActAfterSteps", c.ActAfterSteps},
		{"DirtyBytes", c.DirtyBytes}, {"SampleEvery", c.SampleEvery}, {"Arch", c.Arch},
		{"Layers", c.Layers},
	}
}

// tagExcluded names the fields no trained number depends on, so a
// snapshot restores across them: the SDC guards are read-only, and the
// trainer is bit-identical at every worker count.
var tagExcluded = []string{"SDCChecks", "Workers"}

// configTag fingerprints the numerically relevant configuration. A
// snapshot only restores into a trainer whose tag matches: resuming under
// different hyperparameters would silently diverge from the original run.
// It is FNV-64a over "|name=value" for each tagged field whose defaulted
// value differs from the field's default, in tagFields order — the
// Options.Fingerprint scheme. So an omitted knob and its explicit default
// share a tag, and a new field that defaults to the old behaviour moves
// no stored snapshot's tag.
func (c Config) configTag() uint64 {
	return tagOf(c.withDefaults().tagFields(), Config{}.withDefaults().tagFields())
}

func tagOf(fields, defaults []tagField) uint64 {
	b := []byte("realtrain")
	for i, f := range fields {
		if f.val != defaults[i].val {
			b = fmt.Appendf(b, "|%s=%v", f.name, f.val)
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// WithDefaults returns the effective configuration (every zero knob
// replaced by its default) — exported so run caches can key on the
// canonical config.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// proxyModel is the architecture interface both proxies satisfy.
type proxyModel interface {
	NumParams() int
	Parameters() []float32
	LossAndGrad(params []float32, ds *Dataset, batch []int, grads []float32) float64
	// Forward returns the class probabilities of one example; the slice is
	// model scratch, valid until the next call.
	Forward(params []float32, tok []int) []float32
}

// evaluate runs one forward pass per test example and returns the mean
// cross-entropy and the accuracy of params on the test split.
func evaluate(m proxyModel, params []float32, ds *Dataset) (loss, acc float64) {
	correct := 0
	for i, tok := range ds.TestTok {
		probs := m.Forward(params, tok)
		y := ds.TestY[i]
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		best := 0
		for c := range probs {
			if probs[c] > probs[best] {
				best = c
			}
		}
		if best == y {
			correct++
		}
	}
	n := float64(len(ds.TestTok))
	return loss / n, float64(correct) / n
}

// Parameters returns the MLP's flat parameter vector.
func (m *MLP) Parameters() []float32 { return m.Params }

// Parameters returns the attention model's flat parameter vector.
func (m *Attention) Parameters() []float32 { return m.Params }

// newProxy builds cfg's architecture; cfg has passed validate.
func newProxy(cfg Config, ds *Dataset) proxyModel {
	switch cfg.Arch {
	case "attention":
		return NewAttention(ds.Vocab, ds.Dim, ds.Classes, cfg.Seed+1)
	case "stack":
		return NewLayerStack(ds.Vocab, ds.Dim, ds.Classes, cfg.Layers, cfg.Seed+1)
	default:
		return NewMLP(ds.Vocab, ds.Dim, cfg.Hidden, ds.Classes, cfg.Seed+1)
	}
}

// StepSample is one recorded point of a run.
type StepSample struct {
	Step int
	Loss float64 // minibatch training loss
	// ParamDist / GradDist classify byte changes versus the previous
	// sampled step (Fig 2).
	ParamDist tensor.Distribution
	GradDist  tensor.Distribution
	// DBAActive reports whether the dirty-byte path was on at this step.
	DBAActive bool
}

// Result is a completed fine-tuning run.
type Result struct {
	Config      Config
	Samples     []StepSample
	FinalLoss   float64 // test cross-entropy of the *accelerator* params
	FinalAcc    float64 // test accuracy of the accelerator params
	Perplexity  float64 // exp(test loss) — the GPT-2-style metric proxy
	MasterAcc   float64 // accuracy of the CPU master copy (no DBA error)
	ActivatedAt int     // step DBA activated, -1 if never
	// DivergedBits counts master/accelerator words whose upper two bytes
	// differ at the end (the accumulated DBA staleness).
	DivergedWords int
}

// CorruptionError reports a silent-data-corruption detection: a resident
// tensor's checksum no longer matches its last recorded value, or ADAM
// produced a non-finite parameter. The step that detected it made no
// further state changes; the owner must roll back to a checkpoint.
type CorruptionError struct {
	// Tensor names the buffer that failed ("master", "compute",
	// "adam.m", "adam.v").
	Tensor string
	// Index is the first offending element for NaN/Inf detections, -1
	// for checksum mismatches (the CRC localizes nothing).
	Index int
	// NonFinite distinguishes the NaN/Inf scan from a checksum mismatch.
	NonFinite bool
}

func (e *CorruptionError) Error() string {
	if e.NonFinite {
		return fmt.Sprintf("realtrain: non-finite value in %s at %d (silent data corruption)", e.Tensor, e.Index)
	}
	return fmt.Sprintf("realtrain: checksum mismatch on %s (silent data corruption)", e.Tensor)
}

// IsCorruption reports whether err is a silent-data-corruption detection.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// Trainer is a step-wise, checkpointable fine-tuning run: pre-training
// happens at construction, then each Step() executes one fine-tuning step
// of the ZeRO-Offload dataflow where the accelerator's compute copy is
// refreshed through the (optionally DBA'd) parameter path. Snapshot() and
// restore (NewTrainerFromSnapshot) are bit-exact: a restored trainer
// produces the same parameters, ADAM moments and loss trajectory as an
// uninterrupted run with the same seeds.
type Trainer struct {
	cfg   Config
	ds    *Dataset
	model proxyModel
	src   *checkpoint.CountingSource
	rng   *rand.Rand
	ad    *optim.Adam
	ctrl  *dba.Controller

	master     []float32 // CPU master copy (aliases the model's params)
	compute    []float32 // accelerator copy (fwd/bwd uses this)
	grads      []float32
	prevMaster []float32
	prevGrads  []float32

	step    int
	samples []StepSample
	batch   []int         // reusable minibatch index buffer
	fs      *fusedScratch // per-chunk slots for the fused ADAM epilogue

	guard *sdcGuard // SDC guard record: per-chunk sums of the resident tensors
}

// NewTrainer builds a trainer and runs the pre-training phase ("the paper
// fine-tunes pre-trained models"; we reach the convergence neighbourhood
// first so the fine-tuning updates are small — the regime where DBA's
// premise holds). It is exactly Pretrain followed by NewTrainerFromPre, so
// sharing a PreState across runs whose pre-phase configuration matches is
// bit-identical to pre-training each run from scratch by construction.
func NewTrainer(cfg Config) (*Trainer, error) {
	pre, err := Pretrain(cfg)
	if err != nil {
		return nil, err
	}
	return NewTrainerFromPre(cfg, pre)
}

// PreState is the trainer state at the end of the pre-training phase: the
// master parameters and the batch-RNG draw position, plus the seed's
// dataset (immutable after construction, so every run seeded from this
// state shares it instead of regenerating it). Runs that differ only
// in fine-tuning knobs (DBA, ActAfterSteps, DirtyBytes, Steps, FineLR,
// SampleEvery, SDCChecks, Workers) share the same pre-phase,
// so a PreState computed once can seed all of them — the memoization the
// experiment suite uses to pre-train each seed exactly once.
type PreState struct {
	tag    uint64
	ds     *Dataset
	params []float32
	draws  uint64
}

// preTag fingerprints the configuration knobs the pre-training phase
// depends on: dataset/model/RNG seeds and the pre-phase optimizer recipe.
func (c Config) preTag() uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d batch=%d lr=%g clip=%g hidden=%d presteps=%d arch=%s layers=%d",
		c.Seed, c.Batch, c.LR, c.ClipNorm, c.Hidden, c.PreSteps, c.Arch, c.Layers)
	return h.Sum64()
}

// Pretrain runs only the pre-training phase for cfg and returns its final
// state.
func Pretrain(cfg Config) (*PreState, error) {
	t, err := newTrainerShell(cfg, nil)
	if err != nil {
		return nil, err
	}
	// Phase 0: "pre-training" on the master copy.
	pre, err := optim.NewAdam(len(t.master), optim.AdamConfig{LR: t.cfg.LR, Workers: t.cfg.Workers})
	if err != nil {
		return nil, err
	}
	for s := 0; s < t.cfg.PreSteps; s++ {
		t.batch = t.ds.BatchInto(t.rng, t.batch, t.cfg.Batch)
		t.model.LossAndGrad(t.master, t.ds, t.batch, t.grads)
		// Deferred clip: the scale folds into the fused ADAM pass, saving
		// one full gradient walk per pre-training step (bit-identical —
		// see optim.ClipScale).
		_, scale := optim.ClipScale(t.grads, t.cfg.ClipNorm)
		if err := pre.StepFused(t.master, t.grads, scale, nil); err != nil {
			return nil, err
		}
	}
	return &PreState{
		tag:    cfg.preTag(),
		ds:     t.ds,
		params: append([]float32(nil), t.master...),
		draws:  t.src.Draws(),
	}, nil
}

// NewTrainerFromPre builds a fine-tune-ready trainer from a shared
// pre-training state: the master/compute/previous copies start from the
// pre-trained parameters and the batch RNG is fast-forwarded to the
// recorded draw position, so the run is bit-identical to one whose
// pre-training executed inline.
func NewTrainerFromPre(cfg Config, pre *PreState) (*Trainer, error) {
	if pre.tag != cfg.preTag() {
		return nil, fmt.Errorf("realtrain: pre-state tag %x does not match config pre-phase %x", pre.tag, cfg.preTag())
	}
	t, err := newTrainerShell(cfg, pre.ds)
	if err != nil {
		return nil, err
	}
	if len(pre.params) != len(t.master) {
		return nil, fmt.Errorf("realtrain: pre-state has %d params, model has %d", len(pre.params), len(t.master))
	}
	copy(t.master, pre.params)
	copy(t.compute, t.master)
	copy(t.prevMaster, t.master)
	t.src.FastForward(pre.draws)
	t.recordSums()
	return t, nil
}

// newTrainerShell validates the defaulted cfg and allocates everything
// that does not depend on training history: dataset, model, RNG,
// optimizer, DBA controller, buffers. ds is cfg.Seed's dataset when the
// caller already holds it (read-only, safe to share between trainers),
// nil to generate it.
func newTrainerShell(cfg Config, ds *Dataset) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ds == nil {
		ds = NewDataset(DatasetConfig{Seed: cfg.Seed})
	}
	m := newProxy(cfg, ds)
	src := checkpoint.NewCountingSource(cfg.Seed + 2)

	n := m.NumParams()
	ad, err := optim.NewAdam(n, optim.AdamConfig{LR: cfg.FineLR, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return &Trainer{
		cfg:        cfg,
		ds:         ds,
		model:      m,
		src:        src,
		rng:        rand.New(src),
		ad:         ad,
		ctrl:       dba.NewController(cfg.ActAfterSteps, cfg.DirtyBytes),
		master:     m.Parameters(),
		compute:    make([]float32, n),
		grads:      make([]float32, n),
		prevMaster: make([]float32, n),
		prevGrads:  make([]float32, n),
		guard:      newSDCGuard(n),
	}, nil
}

// Config returns the effective (defaulted) configuration.
func (t *Trainer) Config() Config { return t.cfg }

// StepCount returns the number of completed fine-tuning steps.
func (t *Trainer) StepCount() int { return t.step }

// Done reports whether the configured number of steps has completed.
func (t *Trainer) Done() bool { return t.step >= t.cfg.Steps }

// MasterParams returns the live CPU master parameter vector (read-only to
// callers; the recovery tests compare it bit-wise across runs).
func (t *Trainer) MasterParams() []float32 { return t.master }

// VerifyIntegrity runs the full SDC guard sweep regardless of SDCChecks:
// checksum validation (when recorded) plus a non-finite scan of master
// parameters and both moment vectors. The session calls it after every
// restore before trusting the resumed state.
func (t *Trainer) VerifyIntegrity() error {
	if err := t.verifySums(); err != nil {
		return err
	}
	if i := optim.FirstNonFiniteWorkers(t.master, t.cfg.Workers); i >= 0 {
		return &CorruptionError{Tensor: "master", Index: i, NonFinite: true}
	}
	am, av := t.ad.Moments()
	if i := optim.FirstNonFiniteWorkers(am, t.cfg.Workers); i >= 0 {
		return &CorruptionError{Tensor: "adam.m", Index: i, NonFinite: true}
	}
	if i := optim.FirstNonFiniteWorkers(av, t.cfg.Workers); i >= 0 {
		return &CorruptionError{Tensor: "adam.v", Index: i, NonFinite: true}
	}
	return nil
}

// Step executes one fine-tuning step. On a silent-data-corruption
// detection it returns a *CorruptionError and guarantees the error was
// raised before the corrupt data could be committed past the failing
// phase; the owner rolls back to the last checkpoint and replays.
func (t *Trainer) Step() error {
	if t.Done() {
		return fmt.Errorf("realtrain: step %d past configured %d steps", t.step, t.cfg.Steps)
	}
	// Guard: the state this step consumes must match what the previous
	// step recorded.
	if err := t.verifySums(); err != nil {
		return err
	}

	s := t.step
	// Forward/backward on the ACCELERATOR copy (possibly stale in its
	// high bytes when DBA is on).
	t.batch = t.ds.BatchInto(t.rng, t.batch, t.cfg.Batch)
	loss := t.model.LossAndGrad(t.compute, t.ds, t.batch, t.grads)
	// Gradients cross GPU->CPU in full FP32 (no DBA for grads). The clip's
	// norm reduction runs first (it needs every gradient); the scaling
	// itself is deferred into the fused ADAM pass.
	_, clipScale := optim.ClipScale(t.grads, t.cfg.ClipNorm)
	// Fused ADAM pass: one traversal of master/grads/moments applies the
	// clip scale and the ADAM update, then per chunk the epilogue runs the
	// post-step tensor walks that used to be standalone passes — the
	// NaN/Inf guard, the master and moment guard sums (written straight
	// into the guard record), the sampled byte-change distributions, and
	// the previous-value copies. Per-chunk partials are combined after the
	// pass in chunk order (exact folds), so every result is bit-identical
	// to the unfused sequence at any worker count. The previous-value
	// copies and guard sums land before any corruption error is returned
	// below; that is unobservable — a corruption step's trainer is
	// discarded for a checkpoint restore, never stepped on.
	sdc := t.cfg.SDCChecks
	fs := t.fused(len(t.master))
	fs.sdc = sdc
	fs.sample = s%t.cfg.SampleEvery == 0 || s == t.cfg.Steps-1
	fs.am, fs.av = t.ad.Moments()
	if err := t.ad.StepFused(t.master, t.grads, clipScale, fs.epi); err != nil {
		return err
	}
	// Guard: a NaN produced by ADAM on corrupted bytes must trigger
	// rollback, not poison the master copy for the rest of the run. The
	// fold walks chunks in ascending order, so the reported index is the
	// serial scan's first hit.
	if sdc {
		if i := fs.firstNonFinite(); i >= 0 {
			return &CorruptionError{Tensor: "master", Index: i, NonFinite: true}
		}
	}

	active := false
	if t.cfg.DBA {
		active = t.ctrl.CheckActivation(s)
	}
	// Parameter transfer CPU->GPU: the dirty-byte merge once DBA is
	// active, a full copy before.
	if active {
		dba.MergeWords(t.compute, t.master, t.cfg.DirtyBytes, t.cfg.Workers)
	} else {
		copy(t.compute, t.master)
	}
	// Guard: validate the merge result against the master copy it was
	// built from — the low dirty bytes must match the master bit-exactly
	// (a corrupt merge is exactly the failure TECO's DBA design cannot
	// tolerate silently).
	if t.cfg.SDCChecks && active {
		if i := dba.FirstMergeMismatch(t.compute, t.master, t.cfg.DirtyBytes, t.cfg.Workers); i >= 0 {
			return &CorruptionError{Tensor: "compute", Index: i}
		}
	}

	if fs.sample {
		// The distributions were gathered inside the fused pass (before
		// the previous-value copies clobbered their baselines); folding
		// per-chunk counts in chunk order is dba.ScanChanged's combine.
		t.samples = append(t.samples, StepSample{
			Step: s, Loss: loss, DBAActive: active,
			ParamDist: foldDist(fs.pDist),
			GradDist:  foldDist(fs.gDist),
		})
	}
	t.step++
	t.recordSumsFused()
	if check.Enabled() {
		t.checkStep(active)
	}
	return nil
}

// checkStep asserts the trainer's per-step invariants under the conformance
// layer (independent of the SDCChecks guards, which turn detections into
// rollbacks rather than failures): the master copy stays finite, and an
// active DBA merge leaves the compute copy carrying the master's dirty
// bytes exactly.
func (t *Trainer) checkStep(active bool) {
	check.Check(
		func() error {
			if i := optim.FirstNonFiniteWorkers(t.master, t.cfg.Workers); i >= 0 {
				return fmt.Errorf("realtrain: non-finite master word %d after step %d", i, t.step-1)
			}
			return nil
		},
		func() error {
			if !active {
				return nil
			}
			if i := dba.FirstMergeMismatch(t.compute, t.master, t.cfg.DirtyBytes, t.cfg.Workers); i >= 0 {
				return fmt.Errorf("realtrain: merge mismatch at word %d after step %d", i, t.step-1)
			}
			return nil
		},
	)
}

// Result finalizes the run: test metrics of the accelerator params, the
// master-copy reference accuracy, and the accumulated DBA staleness.
func (t *Trainer) Result() Result {
	res := Result{Config: t.cfg, ActivatedAt: -1, Samples: t.samples}
	if t.cfg.DBA {
		res.ActivatedAt = t.ctrl.ActivatedAt()
	}
	res.FinalLoss, res.FinalAcc = evaluate(t.model, t.compute, t.ds)
	res.Perplexity = math.Exp(res.FinalLoss)
	_, res.MasterAcc = evaluate(t.model, t.master, t.ds)
	for i := range t.master {
		if math.Float32bits(t.master[i])>>16 != math.Float32bits(t.compute[i])>>16 {
			res.DivergedWords++
		}
	}
	return res
}

// Snapshot captures the trainer's complete resumable state.
func (t *Trainer) Snapshot() *checkpoint.Snapshot {
	am, av := t.ad.Moments()
	s := &checkpoint.Snapshot{
		ConfigTag:   t.cfg.configTag(),
		Seed:        t.cfg.Seed,
		Step:        int64(t.step),
		AdamStep:    int64(t.ad.StepCount()),
		ActivatedAt: int64(t.ctrl.ActivatedAt()),
		RNGDraws:    t.src.Draws(),
		Params:      append([]float32(nil), t.master...),
		Compute:     append([]float32(nil), t.compute...),
		AdamM:       append([]float32(nil), am...),
		AdamV:       append([]float32(nil), av...),
		PrevParams:  append([]float32(nil), t.prevMaster...),
		PrevGrads:   append([]float32(nil), t.prevGrads...),
	}
	for _, sm := range t.samples {
		s.Samples = append(s.Samples, checkpoint.Sample{
			Step: int64(sm.Step), Loss: sm.Loss, DBAActive: sm.DBAActive,
			ParamDist: sm.ParamDist, GradDist: sm.GradDist,
		})
	}
	return s
}

// NewTrainerFromSnapshot rebuilds a trainer from a snapshot without
// re-running pre-training: the dataset and model skeleton are regenerated
// from the seed, every tensor is copied from the snapshot, and the batch
// RNG is fast-forwarded to the recorded draw position — so the resumed run
// is bit-identical to the uninterrupted one from this step onward.
func NewTrainerFromSnapshot(cfg Config, snap *checkpoint.Snapshot) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if snap.ConfigTag != cfg.configTag() {
		return nil, fmt.Errorf("realtrain: snapshot config tag %x does not match run config %x", snap.ConfigTag, cfg.configTag())
	}
	if snap.Seed != cfg.Seed {
		return nil, fmt.Errorf("realtrain: snapshot seed %d does not match config seed %d", snap.Seed, cfg.Seed)
	}
	if snap.Step < 0 || snap.Step > int64(cfg.Steps) {
		return nil, fmt.Errorf("realtrain: snapshot step %d outside run of %d steps", snap.Step, cfg.Steps)
	}
	t, err := newTrainerShell(cfg, nil)
	if err != nil {
		return nil, err
	}
	n := len(t.master)
	for name, v := range map[string][]float32{
		"params": snap.Params, "compute": snap.Compute,
		"adam.m": snap.AdamM, "adam.v": snap.AdamV,
		"prev.params": snap.PrevParams, "prev.grads": snap.PrevGrads,
	} {
		if len(v) != n {
			return nil, fmt.Errorf("realtrain: snapshot tensor %q has %d values, model has %d", name, len(v), n)
		}
	}
	copy(t.master, snap.Params)
	copy(t.compute, snap.Compute)
	copy(t.prevMaster, snap.PrevParams)
	copy(t.prevGrads, snap.PrevGrads)
	if err := t.ad.Restore(snap.AdamM, snap.AdamV, int(snap.AdamStep)); err != nil {
		return nil, err
	}
	t.ctrl.Restore(int(snap.ActivatedAt))
	t.src.FastForward(snap.RNGDraws)
	t.step = int(snap.Step)
	for _, sm := range snap.Samples {
		t.samples = append(t.samples, StepSample{
			Step: int(sm.Step), Loss: sm.Loss, DBAActive: sm.DBAActive,
			ParamDist: sm.ParamDist, GradDist: sm.GradDist,
		})
	}
	t.recordSums()
	return t, nil
}

// Lineage returns c with its dirty-byte knobs (DBA, ActAfterSteps,
// DirtyBytes) cleared: the plain run that every DBA variant of c follows
// bit for bit until it activates, because before activation the DBA path
// makes the same full parameter copy the plain path does.
func (c Config) Lineage() Config {
	c.DBA, c.ActAfterSteps, c.DirtyBytes = false, 0, 0
	return c
}

// BranchStep is the step count at which c's run leaves its lineage: the
// resolved activation step of a DBA run (negative ActAfterSteps is the
// paper default, as dba.Controller resolves it), capped at Steps; Steps for
// a run without DBA. After any k <= BranchStep() steps, c's trainer state
// is its lineage's.
func (c Config) BranchStep() int {
	c = c.withDefaults()
	if !c.DBA {
		return c.Steps
	}
	return min(dba.NewController(c.ActAfterSteps, c.DirtyBytes).ActAfterSteps, c.Steps)
}

// Fork returns a trainer that continues t's run under cfg from t's exact
// state: the parameters, compute and previous-value copies, ADAM moments
// and step, batch-RNG draws and recorded samples are copied, and the
// dataset is shared read-only. Stepping the fork to the end is
// bit-identical to running cfg from the start, which is what lets one
// plain run serve as the common prefix of its DBA variants. Fork refuses a
// cfg that differs from t's in more than DBA, ActAfterSteps and DirtyBytes
// (the scheduling knobs Workers and SDCChecks aside), a trainer whose own
// DBA has activated, and a trainer already past cfg's BranchStep.
func (t *Trainer) Fork(cfg Config) (*Trainer, error) {
	if cfg.Lineage().configTag() != t.cfg.Lineage().configTag() {
		return nil, fmt.Errorf("realtrain: fork config differs from the trainer's in more than DBA, ActAfterSteps and DirtyBytes")
	}
	if at := t.ctrl.ActivatedAt(); at >= 0 {
		return nil, fmt.Errorf("realtrain: cannot fork a trainer whose DBA activated at step %d", at)
	}
	if b := cfg.BranchStep(); t.step > b {
		return nil, fmt.Errorf("realtrain: fork at step %d is past the branch's activation step %d", t.step, b)
	}
	f, err := newTrainerShell(cfg, t.ds)
	if err != nil {
		return nil, err
	}
	am, av := t.ad.Moments()
	if err := f.ad.Restore(am, av, t.ad.StepCount()); err != nil {
		return nil, err
	}
	copy(f.master, t.master)
	copy(f.compute, t.compute)
	copy(f.prevMaster, t.prevMaster)
	copy(f.prevGrads, t.prevGrads)
	f.src.FastForward(t.src.Draws())
	f.step = t.step
	f.samples = slices.Clone(t.samples)
	f.recordSums()
	return f, nil
}

// CorruptWord flips bits of one word of a resident tensor WITHOUT updating
// the recorded checksums — the silent-data-corruption injection hook the
// crash harness and the recovery sweep use. tensorName selects "master",
// "compute", "adam.m" or "adam.v".
func (t *Trainer) CorruptWord(tensorName string, index int, bitMask uint32) error {
	var buf []float32
	am, av := t.ad.Moments()
	switch tensorName {
	case "master":
		buf = t.master
	case "compute":
		buf = t.compute
	case "adam.m":
		buf = am
	case "adam.v":
		buf = av
	default:
		return fmt.Errorf("realtrain: unknown tensor %q", tensorName)
	}
	if index < 0 || index >= len(buf) {
		return fmt.Errorf("realtrain: corrupt index %d outside %d words", index, len(buf))
	}
	buf[index] = math.Float32frombits(math.Float32bits(buf[index]) ^ bitMask)
	return nil
}

// Run executes the fine-tuning experiment end to end; it is the
// non-checkpointed path every accuracy experiment uses, bit-identical to
// driving a Trainer manually.
func Run(cfg Config) Result {
	t, err := NewTrainer(cfg)
	if err != nil {
		panic(err) // static configs only; checkpointed runs use NewTrainer
	}
	for !t.Done() {
		if err := t.Step(); err != nil {
			panic(err)
		}
	}
	return t.Result()
}

// AggregateDistributions sums the per-sample distributions of a run.
func (r Result) AggregateDistributions() (params, grads tensor.Distribution) {
	for _, s := range r.Samples {
		params.Add(s.ParamDist)
		grads.Add(s.GradDist)
	}
	return
}

// LossCurve returns (steps, losses) for plotting Fig 10.
func (r Result) LossCurve() ([]int, []float64) {
	steps := make([]int, len(r.Samples))
	losses := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		steps[i] = s.Step
		losses[i] = s.Loss
	}
	return steps, losses
}
