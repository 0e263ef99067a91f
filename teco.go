// Package teco is the public API of the TECO (Tensor-CXL-Offload)
// reproduction: a simulation and numerical-validation library for the SC'24
// paper "Efficient Tensor Offloading for Large Deep-Learning Model Training
// based on Compute Express Link".
//
// The library provides three entry points:
//
//   - Simulate: per-step timing of ZeRO-Offload, TECO-CXL, TECO-Reduction
//     and the invalidation-protocol ablation for the paper's workloads
//     (Table III geometries or custom models);
//   - FineTune: real FP32 fine-tuning with the bit-exact dirty-byte
//     parameter path, for convergence/accuracy studies;
//   - Experiments: regeneration of every table and figure in the paper's
//     evaluation section.
//
// The protocol, link, and aggregation machinery (MESI update extension,
// CXL packets, Aggregator/Disaggregator) lives in the internal packages and
// is exercised end-to-end by ReplayParameterUpdate.
package teco

import (
	"io"

	"teco/internal/core"
	"teco/internal/experiments"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/realtrain"
	"teco/internal/tensor"
	"teco/internal/zero"
)

// System selects which training system to simulate.
type System int

const (
	// ZeroOffload is the DeepSpeed baseline (paper Fig 1).
	ZeroOffload System = iota
	// TECOCXL is the update-coherent giant cache without DBA.
	TECOCXL
	// TECOReduction is CXL plus dirty-byte aggregation — the full system.
	TECOReduction
	// TECOInvalidation is the stock-MESI ablation (§IV-A2).
	TECOInvalidation
)

// String names the system as the paper does.
func (s System) String() string { return s.toVariant().String() }

func (s System) toVariant() phases.Variant {
	switch s {
	case ZeroOffload:
		return phases.ZeroOffload
	case TECOCXL:
		return phases.TECOCXL
	case TECOReduction:
		return phases.TECOReduction
	default:
		return phases.TECOInvalidation
	}
}

// Model re-exports the workload description (see Models for Table III).
type Model = modelzoo.Model

// Models returns the five evaluation workloads of Table III.
func Models() []Model { return modelzoo.EvaluationModels() }

// ModelByName looks up any built-in model (Table III plus the GPT-2 scale
// sweep and Bert-base).
func ModelByName(name string) (Model, bool) { return modelzoo.ByName(name) }

// StepResult is the simulated per-step outcome: the Figure 12 breakdown
// plus link-volume accounting. See the embedded Breakdown's fields.
type StepResult = phases.StepResult

// SimConfig tunes a simulation.
type SimConfig struct {
	// DirtyBytes is `dirty_bytes` (default 2); only used by
	// TECOReduction.
	DirtyBytes int
	// DPU enables ZeRO-Offload's one-step delayed parameter update
	// (§II-A); only used by ZeroOffload.
	DPU bool
}

// Simulate runs one training step of the chosen system on the model at the
// given batch size and returns its critical-path breakdown. Batch is
// ignored for full-graph models (GCNII).
func Simulate(sys System, m Model, batch int, cfg SimConfig) StepResult {
	if m.FullGraphOnly {
		batch = 1
	}
	switch sys {
	case ZeroOffload:
		if cfg.DPU {
			return zero.NewEngine().StepDPU(m, batch)
		}
		return zero.NewEngine().Step(m, batch)
	case TECOCXL:
		return cxlEngine.Step(m, batch)
	case TECOReduction:
		if d := cfg.DirtyBytes; d >= 0 && d < len(reductionEngines) {
			return reductionEngines[d].Step(m, batch)
		}
		return core.MustEngine(core.Config{DBA: true, DirtyBytes: cfg.DirtyBytes}).Step(m, batch)
	default:
		return invalEngine.Step(m, batch)
	}
}

// The TECO engines Simulate steps. Step only reads its engine, so every
// call shares one per configuration; reductionEngines is indexed by
// dirty_bytes, 0 selecting the default.
var (
	cxlEngine        = core.MustEngine(core.Config{})
	invalEngine      = core.MustEngine(core.Config{Invalidation: true})
	reductionEngines = func() (es [5]*core.Engine) {
		for d := range es {
			es[d] = core.MustEngine(core.Config{DBA: true, DirtyBytes: d})
		}
		return es
	}()
)

// Speedup returns the training-time speedup of sys over ZeRO-Offload for
// the model/batch (the Fig 11 quantity).
func Speedup(sys System, m Model, batch int) float64 {
	base := Simulate(ZeroOffload, m, batch, SimConfig{})
	return Simulate(sys, m, batch, SimConfig{}).Speedup(base)
}

// FineTuneConfig configures a real fine-tuning run (see
// internal/realtrain.Config for all knobs).
type FineTuneConfig = realtrain.Config

// FineTuneResult is a completed run with loss curve, accuracy, and
// byte-change statistics.
type FineTuneResult = realtrain.Result

// FineTune runs real FP32 training with the bit-exact TECO parameter path
// (full transfers, or the dirty-byte merge when cfg.DBA is set).
func FineTune(cfg FineTuneConfig) FineTuneResult { return realtrain.Run(cfg) }

// ByteChangeClass re-exports the Figure 2 classification.
type ByteChangeClass = tensor.ChangeClass

// Figure 2 classes.
const (
	Unchanged    = tensor.Unchanged
	LastByte     = tensor.LastByte
	LastTwoBytes = tensor.LastTwoBytes
	OtherBytes   = tensor.Other
)

// ClassifyChange returns the Figure 2 byte-change class of an FP32 update.
func ClassifyChange(old, new float32) ByteChangeClass { return tensor.Classify(old, new) }

// Tensor re-exports the FP32 tensor with byte-level views.
type Tensor = tensor.Tensor

// NewTensor allocates a zeroed FP32 tensor.
func NewTensor(name string, n int) *Tensor { return tensor.New(name, n) }

// ReplayConfig selects the functional protocol path for ReplayUpdate.
type ReplayConfig struct {
	// DBA aggregates dirty bytes (DirtyBytes, default 2).
	DBA        bool
	DirtyBytes int
	// Invalidation uses stock MESI instead of the update extension.
	Invalidation bool
}

// ReplayStats re-exports the functional replay statistics.
type ReplayStats = core.ReplayStats

// ReplayUpdate drives the full functional stack — coherence protocol, CXL
// packet framing, Aggregator/Disaggregator — for one parameter-update
// cycle, returning the accelerator-side tensor and protocol statistics.
func ReplayUpdate(old, updated *Tensor, cfg ReplayConfig) (*Tensor, ReplayStats, error) {
	return core.ReplayParameterUpdate(old, updated, core.Config{
		DBA:          cfg.DBA,
		DirtyBytes:   cfg.DirtyBytes,
		Invalidation: cfg.Invalidation,
	})
}

// ExperimentIDs lists the regenerable tables/figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one table/figure (or "all") and writes the
// result as aligned text to w.
func RunExperiment(id string, seed int64, w io.Writer) error {
	tabs, err := experiments.ByID(id, experiments.Options{Seed: seed})
	if err != nil {
		return err
	}
	for _, t := range tabs {
		t.Render(w)
	}
	return nil
}

// ReplayGradients drives the reverse functional path (accelerator-produced
// gradient lines pushed to the CPU through the update protocol), returning
// the CPU-side gradient tensor and protocol statistics.
func ReplayGradients(grads *Tensor, cfg ReplayConfig) (*Tensor, ReplayStats, error) {
	return core.ReplayGradientFlush(grads, core.Config{Invalidation: cfg.Invalidation})
}

// TrainingEstimate re-exports the end-to-end training projection.
type TrainingEstimate = core.TrainingEstimate

// EstimateTraining projects an end-to-end training run: ZeRO-Offload versus
// TECO with DBA activating at actAfterSteps (negative: never).
func EstimateTraining(m Model, batch, steps, actAfterSteps int) TrainingEstimate {
	return core.EstimateTraining(m, batch, steps, actAfterSteps)
}

// CostModel re-exports the §VIII-C data-center economics.
type CostModel = core.CostModel

// DefaultCostModel returns the paper's fleet assumptions (256 A100s at
// p4de.24xlarge pricing, 50% training share).
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// AnnualSavingsUSD converts a fractional training-time saving into yearly
// fleet dollars under the cost model.
func AnnualSavingsUSD(c CostModel, timeSavedFraction float64) float64 {
	return c.AnnualSavingsUSD(timeSavedFraction)
}
