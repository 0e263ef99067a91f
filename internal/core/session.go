package core

import (
	"fmt"

	"teco/internal/modelzoo"
	"teco/internal/sim"
	"teco/internal/zero"
)

// TrainingEstimate is an end-to-end training-run projection: TECO's step
// time is time-varying because DBA activates after `act_aft_steps`
// (TECO-CXL step times before, TECO-Reduction after).
type TrainingEstimate struct {
	Model         string
	Batch         int
	Steps         int
	ActAfterSteps int
	// BaselineTotal is ZeRO-Offload's end-to-end time.
	BaselineTotal sim.Time
	// TECOTotal is the TECO run's end-to-end time.
	TECOTotal sim.Time
	// Speedup is BaselineTotal / TECOTotal.
	Speedup float64
	// TimeSavedFraction is 1 - TECOTotal/BaselineTotal, the quantity the
	// paper's cost analysis (§VIII-C) converts into dollars.
	TimeSavedFraction float64
}

// EstimateTraining projects an end-to-end fine-tuning run of `steps` steps
// with DBA activating at actAfterSteps (negative: DBA never activates —
// TECO-CXL only).
func EstimateTraining(m modelzoo.Model, batch, steps, actAfterSteps int) TrainingEstimate {
	if steps <= 0 {
		panic(fmt.Sprintf("core: %d training steps", steps))
	}
	if m.FullGraphOnly {
		batch = 1
	}
	base := zero.NewEngine().Step(m, batch).Total()
	cxlStep := MustEngine(Config{}).Step(m, batch).Total()
	dbaStep := MustEngine(Config{DBA: true}).Step(m, batch).Total()

	pre := steps
	if actAfterSteps >= 0 && actAfterSteps < steps {
		pre = actAfterSteps
	}
	tecoTotal := sim.Time(int64(cxlStep)*int64(pre) + int64(dbaStep)*int64(steps-pre))
	baseTotal := sim.Time(int64(base) * int64(steps))
	est := TrainingEstimate{
		Model: m.Name, Batch: batch, Steps: steps, ActAfterSteps: actAfterSteps,
		BaselineTotal: baseTotal,
		TECOTotal:     tecoTotal,
	}
	est.Speedup = float64(baseTotal) / float64(tecoTotal)
	est.TimeSavedFraction = 1 - float64(tecoTotal)/float64(baseTotal)
	return est
}

// CostModel is the paper's §VIII-C data-center economics: "It has been
// reported that in an AWS data center, the AI training takes 20% of GPU
// cycles. Assume a data center with 256 A100 GPU and 50% utilization of
// GPUs. 7% of saving in training time leads to a reduction of roughly $900K
// in production cost in a year (based on AWS p4de.24xlarge)."
type CostModel struct {
	// GPUs in the fleet (default 256).
	GPUs int
	// GPUsPerInstance for the priced instance type (default 8,
	// p4de.24xlarge).
	GPUsPerInstance int
	// InstanceHourlyUSD is the on-demand price (default 40.97).
	InstanceHourlyUSD float64
	// TrainingShare is the fraction of GPU time spent on training
	// (default 0.5, the paper's utilization assumption).
	TrainingShare float64
}

// DefaultCostModel returns the paper's assumptions.
func DefaultCostModel() CostModel {
	return CostModel{GPUs: 256, GPUsPerInstance: 8, InstanceHourlyUSD: 40.97, TrainingShare: 0.5}
}

// AnnualSavingsUSD converts a fractional training-time saving into yearly
// dollars for the fleet.
func (c CostModel) AnnualSavingsUSD(timeSavedFraction float64) float64 {
	if c.GPUs == 0 {
		c = DefaultCostModel()
	}
	instances := float64(c.GPUs) / float64(c.GPUsPerInstance)
	annual := instances * c.InstanceHourlyUSD * 24 * 365
	return annual * c.TrainingShare * timeSavedFraction
}
