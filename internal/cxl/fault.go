// Link fault injection and the link-layer retry/replay engine.
//
// The paper's evaluation (§VIII-A) assumes a lossless link; real CXL
// hardware rides on a physical layer with a finite bit-error rate and
// recovers with CRC-protected flits, an ack/nak protocol backed by a replay
// buffer, and poison containment when recovery fails. This file models that
// machinery deterministically: a seeded FaultModel decides which packets are
// corrupted, and the Link's send path charges the NAK round trip, the
// exponential retransmit backoff, and the replay-buffer drain waves to the
// simulated clock. Exhausted retry budgets deliver *poisoned* data — the
// error is surfaced to the protocol layer instead of silently handing over
// garbage.
package cxl

import (
	"fmt"
	"math"
	"math/rand"

	"teco/internal/sim"
)

// Fault-model constants. Only the retry budget is configurable
// (FaultConfig.RetryBudget); the latencies and the replay-buffer depth are
// fixed. The latencies are first-order CXL controller figures, not
// calibrated: the NAK notification and the giant-cache stale-line refetch a
// retried merge needs are both round trips through the device, O(100 ns).
const (
	// DefaultRetryBudget is the number of retransmit rounds before a
	// packet is delivered poisoned.
	DefaultRetryBudget = 8
	// DefaultRetryBackoff is the base delay before the first retransmit
	// round; it doubles every round (exponential backoff).
	DefaultRetryBackoff = 50 * sim.Nanosecond
	// DefaultNakDelay is the NAK notification round trip charged once per
	// retransmit round.
	DefaultNakDelay = 100 * sim.Nanosecond
	// DefaultMergeRetryDelay is charged per retried *aggregated* packet:
	// the Disaggregator must re-fetch the stale line and re-run the merge,
	// re-sending the merge header round trip (giant-cache access).
	DefaultMergeRetryDelay = 100 * sim.Nanosecond
	// DefaultReplaySlots is the replay (retry) buffer depth in packets;
	// a retransmit round larger than the buffer drains in waves.
	DefaultReplaySlots = 32
)

// FaultConfig configures deterministic link fault injection. The zero value
// is a pristine link: no errors.
type FaultConfig struct {
	// Seed drives every random draw; two runs with the same seed and
	// config produce identical retry counts and timings.
	Seed int64
	// BER is the per-bit probability of a wire error.
	BER float64
	// RetryBudget is the number of retransmit rounds before a packet is
	// delivered poisoned (default 8).
	RetryBudget int
}

// Enabled reports whether the config injects any fault at all. A disabled
// config leaves the link's timing bit-identical to the fault-free model.
func (c FaultConfig) Enabled() bool { return c.BER > 0 }

// Validate checks the configuration ranges.
func (c FaultConfig) Validate() error {
	if c.BER < 0 || c.BER >= 1 {
		return fmt.Errorf("cxl: BER %g outside [0,1)", c.BER)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("cxl: negative retry budget %d", c.RetryBudget)
	}
	return nil
}

// FaultModel is the seeded random process deciding which flits go bad. It
// is deterministic: the draw sequence depends only on (Seed, config, call
// order), so a simulation replays identically.
type FaultModel struct {
	cfg FaultConfig
	rng *rand.Rand
	// flitErrProb is the probability that one flit carries at least one
	// bit error: 1-(1-BER)^(FlitBytes*8).
	flitErrProb float64
}

// NewFaultModel builds a model from cfg (defaults applied). An invalid
// configuration is returned as an error, mirroring NewEngine.
func NewFaultModel(cfg FaultConfig) (*FaultModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	return &FaultModel{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		flitErrProb: -math.Expm1(float64(FlitBytes*8) * math.Log1p(-cfg.BER)),
	}, nil
}

// MustFaultModel is NewFaultModel for statically known-good configurations;
// it panics on an invalid config.
func MustFaultModel(cfg FaultConfig) *FaultModel {
	f, err := NewFaultModel(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the model's configuration with defaults applied.
func (f *FaultModel) Config() FaultConfig { return f.cfg }

// PacketErrorProb returns the probability that a wire packet of pktBytes is
// corrupted (CRC failure of at least one of its flits): the expected
// first-round retransmissions per packet, which degradation policies use to
// price packet shapes against each other.
func (f *FaultModel) PacketErrorProb(pktBytes int64) float64 {
	if f.flitErrProb <= 0 || pktBytes <= 0 {
		return 0
	}
	flits := (pktBytes + FlitPayloadBytes - 1) / FlitPayloadBytes
	p := -math.Expm1(float64(flits) * math.Log1p(-f.flitErrProb))
	if p > 1 {
		p = 1
	}
	return p
}

// draw samples Binomial(k, p) deterministically. Exact Bernoulli rolls are
// used for small k; a Poisson (small mean) or normal (large mean)
// approximation otherwise, so the cost per draw is O(1)-ish instead of O(k)
// for the multi-hundred-thousand-packet flows of large models.
func (f *FaultModel) draw(k int64, p float64) int64 {
	if k <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return k
	}
	mean := float64(k) * p
	switch {
	case k <= 64:
		var c int64
		for i := int64(0); i < k; i++ {
			if f.rng.Float64() < p {
				c++
			}
		}
		return c
	case mean < 32:
		// Poisson inversion on one uniform.
		u := f.rng.Float64()
		pm := math.Exp(-mean)
		cdf := pm
		var c int64
		for u > cdf && c < k {
			c++
			pm = float64(pm * (mean / float64(c)))
			cdf += pm
		}
		return c
	default:
		// mean is a product; converting it keeps it out of a fused multiply-add.
		c := int64(math.Round(float64(mean) + float64(f.rng.NormFloat64()*math.Sqrt(mean*(1-p)))))
		if c < 0 {
			c = 0
		}
		if c > k {
			c = k
		}
		return c
	}
}

// CorruptFrame applies deterministic bit errors to a wire frame: the number
// of flips is a binomial draw over the frame's bits at the configured BER.
// It returns the (possibly copied and corrupted) frame and the flip count;
// with zero flips the input slice is returned unmodified. When flips occur
// the corrupted copy lands in scratch's capacity (nil: a fresh allocation).
func (f *FaultModel) CorruptFrame(wire, scratch []byte) ([]byte, int) {
	bits := int64(len(wire)) * 8
	k := f.draw(bits, f.cfg.BER)
	if k == 0 {
		return wire, 0
	}
	cp := append(scratch[:0], wire...)
	for i := int64(0); i < k; i++ {
		b := f.rng.Int63n(bits)
		cp[b/8] ^= 1 << (b % 8)
	}
	return cp, int(k)
}

// LinkFaultStats is the per-link fault/recovery accounting.
type LinkFaultStats struct {
	// Retries counts packet retransmissions (one per corrupted packet per
	// round).
	Retries int64
	// ReplayedBytes is the wire volume retransmitted from the replay
	// buffer.
	ReplayedBytes int64
	// Poisoned counts packets whose retry budget was exhausted and that
	// were delivered poisoned.
	Poisoned int64
	// RetryTime is the cumulative flow-completion delay caused by
	// retransmit rounds (NAK round trips, backoff, resends, replay-buffer
	// drain waves).
	RetryTime sim.Time
	// ReplayHighWater is the largest single-round replay-buffer demand in
	// packets (may exceed the configured depth; the excess drains in
	// waves).
	ReplayHighWater int64
}

// Add returns element-wise accumulation (high water maxes).
func (s LinkFaultStats) Add(o LinkFaultStats) LinkFaultStats {
	s.Retries += o.Retries
	s.ReplayedBytes += o.ReplayedBytes
	s.Poisoned += o.Poisoned
	s.RetryTime += o.RetryTime
	if o.ReplayHighWater > s.ReplayHighWater {
		s.ReplayHighWater = o.ReplayHighWater
	}
	return s
}

// FlowResult describes one flow's traversal of a (possibly faulty) link.
type FlowResult struct {
	// Admit is when a pending-queue slot was granted; Done is when the
	// last (successfully retransmitted) byte landed on the far side.
	Admit, Done sim.Time
	// CleanDone is the completion time the flow would have had on a
	// fault-free link with the same queue state.
	CleanDone sim.Time
	// Packets is the number of wire packets the flow was framed into.
	Packets int64
	// Retries / ReplayedBytes / Poisoned are this flow's share of the
	// link counters.
	Retries       int64
	ReplayedBytes int64
	Poisoned      int64
}
