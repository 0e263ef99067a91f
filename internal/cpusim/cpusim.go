// Package cpusim is the gem5-avx stand-in: a memory-traffic model of the
// 48-core AVX-512 CPU running gradient clipping and the ADAM optimizer
// (paper Fig 1 phases 4-5, Table II configuration). Besides phase times it
// produces the schedule of parameter cache-line writebacks — the artifact
// the paper extracts from gem5 as a timed memory trace and replays through
// the CXL emulator (§VIII-A).
package cpusim

import (
	"fmt"

	"teco/internal/modelzoo"
	"teco/internal/sim"
)

// CPU is a Xeon-6120-class (2-socket, 48 simulated cores) timing model.
type CPU struct {
	// MemBandwidth is effective DRAM bandwidth for the vectorized
	// optimizer (memory-bound).
	MemBandwidth float64
	// AdamBytesPerParam / ClipBytesPerParam are per-parameter DRAM
	// traffic of the two phases.
	AdamBytesPerParam float64
	ClipBytesPerParam float64
	// FillBandwidth is staging-buffer memcpy bandwidth (ZeRO-Offload
	// double-buffer filling).
	FillBandwidth float64
}

// Xeon6120 returns the calibrated default.
func Xeon6120() *CPU {
	return &CPU{
		MemBandwidth:      modelzoo.CPUMemBandwidth,
		AdamBytesPerParam: modelzoo.AdamBytesPerParam,
		ClipBytesPerParam: modelzoo.ClipBytesPerParam,
		FillBandwidth:     modelzoo.CPUFillBandwidth,
	}
}

// AdamTime returns the ADAM update time for n parameters.
func (c *CPU) AdamTime(n int64) sim.Time {
	if n <= 0 {
		panic(fmt.Sprintf("cpusim: %d params", n))
	}
	return sim.FromSeconds(float64(n) * c.AdamBytesPerParam / c.MemBandwidth)
}

// ClipTime returns the global-norm gradient clipping time for n parameters.
func (c *CPU) ClipTime(n int64) sim.Time {
	if n <= 0 {
		panic(fmt.Sprintf("cpusim: %d params", n))
	}
	return sim.FromSeconds(float64(n) * c.ClipBytesPerParam / c.MemBandwidth)
}

// FillTime returns the time to memcpy n bytes into a staging buffer.
func (c *CPU) FillTime(n int64) sim.Time {
	return sim.DurationForBytes(n, c.FillBandwidth)
}

// UpdateSchedule returns the parameter writeback schedule of the ADAM pass
// (its Span is AdamTime): one chunk per layer in layer order, equally spaced
// across the pass. Because the paper's optimizer is vectorized (AVX-512),
// whole cache lines are updated together and written back as the streaming
// pass evicts them — so writebacks track compute progress, which is what
// makes the update protocol's fine-grained overlap possible (§IV-B:
// "multiple parameters are updated at the same time, causing only one
// transfer of the cache line").
func (c *CPU) UpdateSchedule(m modelzoo.Model) sim.Schedule {
	return sim.NewSchedule(c.AdamTime(m.Params), m.ParamBytes(), m.Layers)
}
