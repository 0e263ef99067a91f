package core

import (
	"math"

	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/mem"
	"teco/internal/sim"
)

// AggregatedUneconomical is the graceful-degradation criterion: at the
// configured error rate, does a DBA-aggregated parameter line cost more
// expected link time than a plain full-line transfer?
//
// Per line, the expected cost is the serialization time plus the expected
// retransmissions. Smaller aggregated packets fail less often and are
// cheaper to resend — but every retried aggregated packet also re-pays the
// merge-header round trip (the Disaggregator must refetch the stale line
// from the giant cache to redo the merge, cxl.DefaultMergeRetryDelay), a
// cost a full-line retry never sees. Above a crossover packet-error rate
// the merge penalty dominates and aggregation loses; with the fault-model
// latencies and dirty_bytes=2 the crossover sits near a per-flit error
// probability of ~2%, i.e. BER ≈ 4e-5.
func AggregatedUneconomical(fc cxl.FaultConfig, dirtyBytes int, bytesPerSecond float64) bool {
	if !fc.Enabled() {
		return false
	}
	if dirtyBytes <= 0 {
		dirtyBytes = dba.DefaultDirtyBytes
	}
	if bytesPerSecond <= 0 {
		bytesPerSecond = cxl.EffectiveBandwidth()
	}
	f, err := cxl.NewFaultModel(fc)
	if err != nil {
		// An unmodelable config cannot be priced; never degrade on it.
		return false
	}
	sf := float64(sim.DurationForBytes(mem.LineSize, bytesPerSecond))
	sa := float64(sim.DurationForBytes(int64(mem.LineSize/4*dirtyBytes), bytesPerSecond))
	rf := f.PacketErrorProb(int64(cxl.WirePacketBytes(0)))
	ra := f.PacketErrorProb(int64(cxl.WirePacketBytes(dirtyBytes)))
	costFull := sf * (1 + rf)
	costAgg := float64(sa*(1+ra)) + float64(ra*float64(cxl.DefaultMergeRetryDelay))
	return costAgg >= costFull
}

// DegradationCrossoverBER locates (by bisection on a log scale) the lowest
// BER at which AggregatedUneconomical flips for the given dirty_bytes, or 0
// if it never flips below 1e-2. Experiment tables use it to annotate the
// sweep.
func DegradationCrossoverBER(fc cxl.FaultConfig, dirtyBytes int, bytesPerSecond float64) float64 {
	lo, hi := 1e-12, 1e-2
	probe := func(ber float64) bool {
		c := fc
		c.BER = ber
		return AggregatedUneconomical(c, dirtyBytes, bytesPerSecond)
	}
	if !probe(hi) {
		return 0
	}
	if probe(lo) {
		return lo
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		if probe(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
