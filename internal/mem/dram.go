package mem

import "teco/internal/sim"

// DRAM is a bandwidth/latency model of a memory device: the fast and far
// tiers the tiering cost model prices migrations and far accesses against.
type DRAM struct {
	Name string
	// BytesPerSecond is sustained sequential bandwidth.
	BytesPerSecond float64
	// AccessLatency is the idle-row access latency per request.
	AccessLatency sim.Time
}

// StreamTime returns the time to stream n bytes at sustained bandwidth
// (latency amortized away), used for bulk kernel traffic.
func (d *DRAM) StreamTime(n int64) sim.Time {
	return sim.DurationForBytes(n, d.BytesPerSecond)
}

// HostDDR4 returns the host memory model: 8 controllers of DDR4-2666-class
// memory (gem5 configuration, Table II), ~128 GB/s aggregate peak.
func HostDDR4() *DRAM {
	return &DRAM{Name: "host-DDR4", BytesPerSecond: 128e9, AccessLatency: 90 * sim.Nanosecond}
}

// CXLExpander returns the far-memory tier model: DRAM behind a CXL.mem
// expander. Sustained bandwidth is bounded by the CXL link itself — PCIe3
// x16 raw 16 GB/s at the paper's measured 94.3% protocol efficiency, the
// same constant modelzoo.CXLLinkBandwidth encodes (pinned equal by test) —
// and the access latency carries the ~2× far-memory penalty CXL.mem round
// trips add over local DDR (Pond/CXLRAMSim-class numbers).
func CXLExpander() *DRAM {
	return &DRAM{Name: "cxl-expander", BytesPerSecond: 16e9 * 0.943, AccessLatency: 180 * sim.Nanosecond}
}
