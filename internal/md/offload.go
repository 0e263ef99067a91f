package md

import (
	"math"

	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// Timing constants for the offloaded MD step (§VII): the force kernel is a
// neighbour-gather workload with much lower arithmetic efficiency than
// dense DL kernels.
const (
	// MDGPUEffectiveFLOPS is the V100's sustained throughput on the LJ
	// pair kernel.
	MDGPUEffectiveFLOPS = 0.7e12
	// FlopsPerPair is the cost of one LJ pair interaction.
	FlopsPerPair = 40
	// AvgNeighbors is the average neighbour count at the melt density
	// with cutoff 2.5.
	AvgNeighbors = 75
	// IntegrateBytesPerAtom is CPU memory traffic per atom per Verlet
	// update (positions + velocities + forces, read/write).
	IntegrateBytesPerAtom = 48
	// MDDirtyBytes is `dirty_bytes` for the position stream. As with DL
	// parameters (and unlike forces, whose sign byte flips constantly),
	// positions are made DBA-safe by transferring them as box-scaled
	// coordinates in [1, 2): there the sign and exponent bytes are
	// invariant, so with 3 dirty bytes the stale top byte never changes
	// and the merge is exact; the changing bytes are exactly the low
	// mantissa — the same byte-update pattern TECO exploits for
	// parameters.
	MDDirtyBytes = 3
)

// StepTiming is the per-step breakdown of the offloaded MD loop.
type StepTiming struct {
	Kernel    sim.Time // force kernel on the accelerator
	ForceXfer sim.Time // force transfer exposed beyond the kernel
	Integrate sim.Time // position update on CPU
	PosXfer   sim.Time // position transfer exposed beyond integration
	LinkBytes int64    // total payload on the link per step
}

// Total returns the critical-path step time.
func (t StepTiming) Total() sim.Time {
	return t.Kernel + t.ForceXfer + t.Integrate + t.PosXfer
}

// CommExposed returns exposed transfer time.
func (t StepTiming) CommExposed() sim.Time { return t.ForceXfer + t.PosXfer }

// Mode selects the interconnect behaviour for the MD loop.
type Mode int

const (
	// Baseline uses bulk PCIe DMA with transfers on the critical path.
	Baseline Mode = iota
	// CXLOnly streams updates through the coherent giant cache.
	CXLOnly
	// CXLWithDBA additionally dirty-byte-aggregates the positions.
	CXLWithDBA
)

// kernelTime returns the force-kernel duration for n atoms.
func kernelTime(n int) sim.Time {
	flops := float64(n) * AvgNeighbors * FlopsPerPair
	return sim.FromSeconds(flops / MDGPUEffectiveFLOPS)
}

// integrateTime returns the CPU Verlet-update duration for n atoms.
func integrateTime(n int) sim.Time {
	return sim.FromSeconds(float64(n) * IntegrateBytesPerAtom / modelzoo.CPUMemBandwidth)
}

// SimulateStep models one offloaded MD step for n atoms under the mode.
func SimulateStep(n int, mode Mode) StepTiming {
	posBytes := int64(n) * 12
	forceBytes := int64(n) * 12
	var t StepTiming
	t.Kernel = kernelTime(n)
	t.Integrate = integrateTime(n)

	switch mode {
	case Baseline:
		bw := modelzoo.BaselineLinkBandwidth()
		t.ForceXfer = sim.DurationForBytes(forceBytes, bw)
		t.PosXfer = sim.DurationForBytes(posBytes, bw)
		t.LinkBytes = posBytes + forceBytes
	case CXLOnly, CXLWithDBA:
		bw := modelzoo.CXLLinkBandwidth()
		// Forces stream out while the kernel runs; positions stream
		// while the CPU integrates. Exposure is only the excess beyond
		// the producing phase.
		fx := sim.DurationForBytes(forceBytes, bw)
		if fx > t.Kernel {
			t.ForceXfer = fx - t.Kernel
		}
		movedPos := posBytes
		if mode == CXLWithDBA {
			movedPos = posBytes * MDDirtyBytes / 4
		}
		px := sim.DurationForBytes(movedPos, bw)
		if px > t.Integrate {
			t.PosXfer = px - t.Integrate
		}
		t.LinkBytes = movedPos + forceBytes
	}
	return t
}

// GeneralityReport is the §VII result set.
type GeneralityReport struct {
	Atoms              int
	BaselineStep       sim.Time
	CXLStep            sim.Time
	DBAStep            sim.Time
	CommFraction       float64 // baseline exposed-comm share (paper: 27%)
	Improvement        float64 // total TECO improvement (paper: 21.5%)
	VolumeReduction    float64 // DBA link-volume saving (paper: 17%)
	CXLContribution    float64 // share of improvement from CXL (paper: 78%)
	DBAContribution    float64 // share from DBA (paper: 22%)
	HoursSavedPerMonth float64 // illustrative long-run saving
}

// Generality computes the §VII comparison for n atoms.
func Generality(n int) GeneralityReport {
	base := SimulateStep(n, Baseline)
	cxl := SimulateStep(n, CXLOnly)
	dbaT := SimulateStep(n, CXLWithDBA)
	r := GeneralityReport{
		Atoms:        n,
		BaselineStep: base.Total(),
		CXLStep:      cxl.Total(),
		DBAStep:      dbaT.Total(),
		CommFraction: float64(base.CommExposed()) / float64(base.Total()),
	}
	total := float64(base.Total() - dbaT.Total())
	r.Improvement = total / float64(base.Total())
	r.VolumeReduction = 1 - float64(dbaT.LinkBytes)/float64(base.LinkBytes)
	if total > 0 {
		r.CXLContribution = float64(base.Total()-cxl.Total()) / total
		r.DBAContribution = float64(cxl.Total()-dbaT.Total()) / total
	}
	// A month of continuous simulation at the baseline rate.
	stepsPerMonth := 30 * 24 * 3600 / base.Total().Seconds()
	r.HoursSavedPerMonth = stepsPerMonth * (base.Total().Seconds() - dbaT.Total().Seconds()) / 3600
	return r
}

// ---------------------------------------------------------------------------
// Real-physics DBA validation.

// RunOffloaded advances the system `steps` steps of size dt with the
// offloaded dataflow: the CPU integrates positions and ships them to the
// accelerator through the dirty-byte path (as box-scaled coordinates in
// [1, 2), where the merge is well-conditioned); the accelerator computes
// forces from its merged position copy, and forces return exact — like
// gradients in the DL flow, the accelerator->CPU stream is not DBA'd. It
// returns the relative total-energy drift over the run — the physics-level
// counterpart of the paper's accuracy tables.
func RunOffloaded(s *System, steps int, dt float32, dirtyBytes int) (drift float64) {
	s.ComputeForces(s.Pos)
	e0 := s.TotalEnergy()
	accU := make([]Vec3, s.N)   // accelerator's scaled position copy
	accPos := make([]Vec3, s.N) // reconstructed positions on the accelerator
	masterU := make([]Vec3, s.N)
	s.toScaled(masterU, s.Pos)
	copy(accU, masterU)
	forceEval := func() {
		// Position transfer CPU -> accelerator over the dirty-byte
		// path, then the offloaded kernel on the merged copy.
		s.toScaled(masterU, s.Pos)
		mergeVecs(accU, masterU, dirtyBytes)
		s.fromScaled(accPos, accU)
		s.ComputeForces(accPos)
	}
	for step := 0; step < steps; step++ {
		s.VerletStep(dt, forceEval)
	}
	e1 := s.TotalEnergy()
	ref := math.Abs(e0)
	if ref == 0 {
		ref = 1
	}
	d := math.Abs(e1-e0) / ref
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d
}

// toScaled maps positions in [0, box) to u = 1 + pos/box in [1, 2), the
// fixed-binade representation that keeps FP32 sign/exponent bytes constant.
func (s *System) toScaled(dst, pos []Vec3) {
	inv := 1 / s.Box
	for i, p := range pos {
		dst[i] = Vec3{X: 1 + float32(s.wrap(p.X)*inv), Y: 1 + float32(s.wrap(p.Y)*inv), Z: 1 + float32(s.wrap(p.Z)*inv)}
	}
}

// fromScaled reconstructs positions from the scaled representation.
func (s *System) fromScaled(dst, u []Vec3) {
	for i, v := range u {
		dst[i] = Vec3{X: (v.X - 1) * s.Box, Y: (v.Y - 1) * s.Box, Z: (v.Z - 1) * s.Box}
	}
}

// mergeVecs refreshes dst from src via the dirty-byte merge (n = 4 is a
// full copy): src's low n bytes over dst's stale high bytes, per FP32
// component — the Disaggregator semantics.
func mergeVecs(dst, src []Vec3, n int) {
	if n >= 4 || n <= 0 {
		copy(dst, src)
		return
	}
	mask := uint32(1)<<(uint(n)*8) - 1
	merge := func(d, s float32) float32 {
		db := math.Float32bits(d)
		sb := math.Float32bits(s)
		return math.Float32frombits((db &^ mask) | (sb & mask))
	}
	for i := range dst {
		dst[i].X = merge(dst[i].X, src[i].X)
		dst[i].Y = merge(dst[i].Y, src[i].Y)
		dst[i].Z = merge(dst[i].Z, src[i].Z)
	}
}
