// Package dba implements dirty-byte aggregation (paper §V): the Aggregator
// in the CPU-side CXL module that packs only the least-significant
// `dirty_bytes` bytes of each 4-byte parameter into a CXL packet, the
// Disaggregator in the accelerator-side CXL module that merges those bytes
// into the stale cache-line copy held in the giant cache, the 4-bit DBA
// configuration register, and the runtime activation rule driven by
// `act_aft_steps`.
//
// Byte order: parameters are FP32 values stored little-endian, so the
// "least-significant two bytes" the paper identifies as the frequently
// changing mantissa bytes are bytes [0,1] of each 4-byte word in memory.
package dba

import (
	"bytes"
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/mem"
	"teco/internal/sim"
)

// WordSize is the data unit DBA operates on: one FP32 parameter.
const WordSize = 4

// WordsPerLine is the number of FP32 parameters per 64-byte cache line.
const WordsPerLine = mem.LineSize / WordSize

// Hardware latencies from the paper's Vivado synthesis scaled to ASIC
// (§VIII-D). End-to-end evaluation charges ModelledLatency per cache line,
// matching the paper's methodology.
const (
	AggregatorLatencyPs    = 1280 // 1.28 ns
	DisaggregatorLatencyPs = 1126 // 1.126 ns
	// ModelledLatency is the 1 ns the paper adds per line in simulation.
	ModelledLatency = sim.Nanosecond
)

// Register is the 4-bit DBA configuration register: the most significant
// bit activates DBA, the low three bits hold the dirty-byte length (0-4).
// The paper's example value 1010b means "active, 2 dirty bytes".
type Register struct {
	Active     bool
	DirtyBytes uint8
}

// PayloadBytes returns the per-line payload size under this register: 64
// bytes when inactive, WordsPerLine*DirtyBytes when active (32 bytes for
// the canonical dirty_bytes=2).
func (r Register) PayloadBytes() int {
	if !r.Active {
		return mem.LineSize
	}
	return WordsPerLine * int(r.DirtyBytes)
}

// AppendAggregate implements the CPU-side Aggregator (Fig 7a): for each
// 4-byte word of the 64-byte line, take the least-significant n bytes and
// append them to dst. The paper implements this with simple logic gates;
// the Go version is the functional equivalent. Appending into dst's spare
// capacity keeps a one-line-per-iteration loop allocation-free.
func AppendAggregate(dst, line []byte, n int) []byte {
	if len(line) != mem.LineSize {
		panic(fmt.Sprintf("dba: aggregate needs a %d-byte line, got %d", mem.LineSize, len(line)))
	}
	if n <= 0 || n > WordSize {
		panic(fmt.Sprintf("dba: invalid dirty-byte length %d", n))
	}
	for w := 0; w < WordsPerLine; w++ {
		base := w * WordSize
		dst = append(dst, line[base:base+n]...)
	}
	return dst
}

// DisaggregateInto implements the accelerator-side Disaggregator (Fig 7b):
// it overwrites the least-significant n bytes of every word of the stale
// 64-byte line old with the aggregated payload and writes the reconstructed
// line into dst (which must hold a full cache line; it may not alias old).
//
// This is the paper's three-step logic — reset n bytes per word, shift each
// payload group to its word position, OR the two — expressed byte-wise.
func DisaggregateInto(dst, old, payload []byte, n int) []byte {
	if len(old) != mem.LineSize {
		panic(fmt.Sprintf("dba: disaggregate needs a %d-byte line, got %d", mem.LineSize, len(old)))
	}
	if n <= 0 || n > WordSize {
		panic(fmt.Sprintf("dba: invalid dirty-byte length %d", n))
	}
	if len(payload) != WordsPerLine*n {
		panic(fmt.Sprintf("dba: payload %dB, want %dB", len(payload), WordsPerLine*n))
	}
	if len(dst) != mem.LineSize {
		panic(fmt.Sprintf("dba: disaggregate destination %dB, want %d", len(dst), mem.LineSize))
	}
	return disaggregateInto(dst, old, payload, n)
}

func disaggregateInto(dst, old, payload []byte, n int) []byte {
	copy(dst, old)
	for w := 0; w < WordsPerLine; w++ {
		copy(dst[w*WordSize:w*WordSize+n], payload[w*n:(w+1)*n])
	}
	if check.Enabled() {
		checkMerged(dst, old, payload, n)
	}
	return dst
}

// checkMerged asserts the Disaggregator post-condition: the merged line
// carries exactly the payload in the low n bytes of every word and the
// stale line's bytes everywhere else. The post-condition implies merge
// idempotence — re-disaggregating the merged line with the same payload is
// a fixed point — which the conformance suite additionally exercises
// end-to-end.
func checkMerged(dst, old, payload []byte, n int) {
	check.Check(func() error {
		for w := 0; w < WordsPerLine; w++ {
			base := w * WordSize
			if !bytes.Equal(dst[base:base+n], payload[w*n:(w+1)*n]) {
				return fmt.Errorf("dba: word %d low bytes diverge from payload after merge", w)
			}
			if !bytes.Equal(dst[base+n:base+WordSize], old[base+n:base+WordSize]) {
				return fmt.Errorf("dba: word %d high bytes diverge from stale line after merge", w)
			}
		}
		return nil
	})
}

// Controller decides when DBA turns on, mirroring TECO's check_activation()
// API (paper §V-A and Listing 1): DBA activates once the training step
// reaches ActAfterSteps. The default of 500 is the paper's default.
type Controller struct {
	// ActAfterSteps is the `act_aft_steps` hyperparameter.
	ActAfterSteps int
	// Register mirrors the hardware DBA register; CheckActivation flips
	// its Active bit.
	Register Register
	// activatedAt records the step DBA switched on (-1 before).
	activatedAt int
}

// DefaultActAfterSteps is the paper's default `act_aft_steps`.
const DefaultActAfterSteps = 500

// DefaultDirtyBytes is the paper's default `dirty_bytes` for DL training.
const DefaultDirtyBytes = 2

// NewController builds a controller. actAfterSteps < 0 selects the default
// 500; dirtyBytes <= 0 selects the default 2.
func NewController(actAfterSteps, dirtyBytes int) *Controller {
	if actAfterSteps < 0 {
		actAfterSteps = DefaultActAfterSteps
	}
	if dirtyBytes <= 0 {
		dirtyBytes = DefaultDirtyBytes
	}
	return &Controller{
		ActAfterSteps: actAfterSteps,
		Register:      Register{Active: false, DirtyBytes: uint8(dirtyBytes)},
		activatedAt:   -1,
	}
}

// CheckActivation is called once per training step (after backward, as in
// Listing 1). It returns true when DBA is active for the *next* parameter
// transfer.
func (c *Controller) CheckActivation(step int) bool {
	if !c.Register.Active && step >= c.ActAfterSteps {
		c.Register.Active = true
		c.activatedAt = step
	}
	return c.Register.Active
}

// Restore rewinds the controller to a checkpointed activation state:
// activatedAt < 0 means DBA had not yet switched on, any other value
// re-activates the register as of that step. Checkpoint restore uses this
// so a resumed run replays the exact activation history.
func (c *Controller) Restore(activatedAt int) {
	if activatedAt < 0 {
		c.Register.Active = false
		c.activatedAt = -1
		return
	}
	c.Register.Active = true
	c.activatedAt = activatedAt
}

// ActivatedAt returns the step DBA switched on, or -1.
func (c *Controller) ActivatedAt() int { return c.activatedAt }
