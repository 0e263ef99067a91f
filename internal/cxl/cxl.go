// Package cxl models the CXL.cache transport the paper builds on: a serial
// link running at 94.3% of PCIe 3.0 x16 bandwidth, a CXL controller with a
// 128-entry pending queue, packet framing with the reserved header bit that
// flags DBA-aggregated payloads, and the CXLFENCE completion primitive
// (paper §IV-A2 and §VIII-A).
package cxl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/mem"
	"teco/internal/sim"
)

// Link-speed constants from the paper's experimental setup (§VIII-A).
const (
	// PCIe3x16BytesPerSecond is the emulated PCIe 3.0 x16 bandwidth.
	PCIe3x16BytesPerSecond = 16e9
	// Efficiency is the fraction of raw PCIe bandwidth CXL sustains
	// ("about 90%", measured as 94.3% in the paper's references).
	Efficiency = 0.943
	// DefaultQueueCap is the CXL controller's pending-queue depth.
	DefaultQueueCap = 128
	// MsgBytes is the link occupancy of a data-less protocol message
	// (invalidation, Go_Flush, ReadOwn): one header-sized slot.
	MsgBytes = 16
)

// EffectiveBandwidth returns the default modelled link bandwidth in B/s.
func EffectiveBandwidth() float64 { return PCIe3x16BytesPerSecond * Efficiency }

// Link is the timed serial-link model. All payloads serialize FIFO through
// the link ("the updated cache lines ... are going through the link one
// after another in a stream manner", §VIII-A). The pending queue bounds how
// far the producer may run ahead of the link.
type Link struct {
	bytesPerSecond float64
	queueCap       int

	freeAt sim.Time
	// finishRing holds the completion times of the most recent queueCap
	// packets; a new packet may only be admitted once the oldest of them
	// has left the queue.
	finishRing []sim.Time
	ringPos    int

	bytesSent int64
	packets   int64
	busy      sim.Time
	// stall accumulates producer wait time caused by a full pending queue.
	stall sim.Time

	// faults is the attached fault model; nil (or a disabled config)
	// leaves the send path bit-identical to the fault-free link.
	faults *FaultModel
	// fstats accumulates retry/replay/poison accounting when faults are
	// injected.
	fstats LinkFaultStats
	// cleanFreeAt tracks where the link drain would be absent injected
	// faults (for exposed-retry-latency accounting).
	cleanFreeAt sim.Time
}

// NewLink builds a link. bytesPerSecond <= 0 selects the default effective
// CXL bandwidth; queueCap <= 0 selects DefaultQueueCap. The engine argument
// is ignored and may be nil (the bench module's cxl probe still passes one).
func NewLink(_ *sim.Engine, bytesPerSecond float64, queueCap int) *Link {
	if bytesPerSecond <= 0 {
		bytesPerSecond = EffectiveBandwidth()
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	return &Link{
		bytesPerSecond: bytesPerSecond,
		queueCap:       queueCap,
		finishRing:     make([]sim.Time, queueCap),
	}
}

// BytesPerSecond returns the modelled link bandwidth.
func (l *Link) BytesPerSecond() float64 { return l.bytesPerSecond }

// ServiceTime returns the serialization time of a payload of n bytes plus a
// fixed extra latency (e.g. the 1 ns Aggregator delay).
func (l *Link) ServiceTime(n int, extra sim.Time) sim.Time {
	return sim.DurationForBytes(int64(n), l.bytesPerSecond) + extra
}

// InjectFaults attaches a fault model built from cfg and returns it. A
// disabled config (zero error rate) attaches nothing and the link stays
// bit-identical to the fault-free model. An invalid config is returned as
// an error and leaves the link untouched.
func (l *Link) InjectFaults(cfg FaultConfig) (*FaultModel, error) {
	if !cfg.Enabled() {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		l.faults = nil
		return nil, nil
	}
	fm, err := NewFaultModel(cfg)
	if err != nil {
		return nil, err
	}
	l.faults = fm
	return fm, nil
}

// Faults returns the attached fault model (nil on a pristine link).
func (l *Link) Faults() *FaultModel { return l.faults }

// FaultStats returns the link's cumulative fault/recovery accounting.
func (l *Link) FaultStats() LinkFaultStats { return l.fstats }

// SendFlow enqueues a flow of n payload bytes that becomes ready at `ready`
// (producer-side; may be in the simulated future), with extra added to its
// serialization time (aggregation logic delay). The result's Admit is when
// a queue slot was free (the producer is back-pressured until then) and
// Done is when the last byte is on the far side. The flow is framed as wire
// packets of pktBytes each (pktBytes <= 0 treats the whole flow as one
// packet). With a fault model attached, the link-layer retry/replay engine
// runs over it: each retransmit round draws the corrupted-packet count,
// charges a NAK round trip plus exponential backoff plus the resend
// serialization (and, for aggregated flows, the per-packet merge-header round
// trip), and packets still failing after the retry budget are delivered
// poisoned.
func (l *Link) SendFlow(ready sim.Time, n int, extra sim.Time, pktBytes int, aggregated bool) FlowResult {
	admit, start := l.admitRun(ready)
	svc := l.ServiceTime(n, extra)
	done := start + svc
	res := FlowResult{Admit: admit, Packets: 1}
	if pktBytes > 0 {
		res.Packets = (int64(n) + int64(pktBytes) - 1) / int64(pktBytes)
		if res.Packets < 1 {
			res.Packets = 1
		}
	} else {
		pktBytes = n
	}

	if f := l.faults; f != nil {
		cleanDone := done
		pErr := f.PacketErrorProb(pktBytes)
		nak := 2 * l.ServiceTime(MsgBytes, 0)
		outstanding := res.Packets
		for round := 1; outstanding > 0; round++ {
			corrupted := f.draw(outstanding, pErr)
			if corrupted == 0 {
				break
			}
			if round > f.cfg.RetryBudget {
				// Replay exhausted: deliver poisoned instead of
				// silently handing over corrupt data.
				res.Poisoned = corrupted
				l.fstats.Poisoned += corrupted
				break
			}
			res.Retries += corrupted
			l.fstats.Retries += corrupted
			replayBytes := corrupted * int64(pktBytes)
			if replayBytes > int64(n) {
				replayBytes = int64(n)
			}
			res.ReplayedBytes += replayBytes
			l.fstats.ReplayedBytes += replayBytes
			if corrupted > l.fstats.ReplayHighWater {
				l.fstats.ReplayHighWater = corrupted
			}
			// A round bigger than the replay buffer drains in waves,
			// each wave paying another NAK round trip.
			waves := (corrupted + DefaultReplaySlots - 1) / DefaultReplaySlots
			shift := uint(round - 1)
			if shift > 16 {
				shift = 16
			}
			resend := l.ServiceTime(int(replayBytes), 0)
			penalty := DefaultNakDelay + sim.Time(waves-1)*nak + (DefaultRetryBackoff << shift) + resend
			if aggregated {
				// Every retried aggregated packet re-sends the merge
				// header round trip: the Disaggregator refetches the
				// stale line to redo the merge.
				penalty += sim.Time(corrupted) * DefaultMergeRetryDelay
			}
			done += penalty
			l.busy += resend
			outstanding = corrupted
		}
		l.fstats.RetryTime += done - cleanDone
		res.CleanDone = cleanDone
		// Track the fault-free drain point for exposure accounting: the
		// clean link would have started no later than the faulty one.
		cs := admit
		if l.cleanFreeAt > cs {
			cs = l.cleanFreeAt
		}
		l.cleanFreeAt = cs + svc
	} else {
		res.CleanDone = done
		l.cleanFreeAt = done
	}

	res.Done = done
	l.commitRun(done, svc, n)
	if check.Enabled() {
		l.checkFlow(ready, n, pktBytes, res)
	}
	return res
}

// checkFlow asserts the per-flow conservation laws the retry/replay engine
// must preserve: every framed packet is either delivered (possibly after
// retries) or poisoned, replayed bytes never exceed the retransmit count
// times the frame size, and fault handling can only delay completion, never
// rewind it past the fault-free schedule.
func (l *Link) checkFlow(ready sim.Time, n, pktBytes int, res FlowResult) {
	check.Check(
		func() error {
			if res.Poisoned < 0 || res.Poisoned > res.Packets {
				return fmt.Errorf("cxl: flow of %d packets poisoned %d (delivery conservation)", res.Packets, res.Poisoned)
			}
			return nil
		},
		func() error {
			if pktBytes <= 0 {
				pktBytes = n
			}
			if res.Retries < 0 || res.ReplayedBytes < 0 || res.ReplayedBytes > res.Retries*int64(pktBytes) {
				return fmt.Errorf("cxl: %dB replayed for %d retries of %dB packets (replay conservation)",
					res.ReplayedBytes, res.Retries, pktBytes)
			}
			return nil
		},
		func() error {
			if res.Admit < ready {
				return fmt.Errorf("cxl: flow admitted at %v before ready %v", res.Admit, ready)
			}
			if res.Done < res.CleanDone {
				return fmt.Errorf("cxl: faulted completion %v before fault-free %v", res.Done, res.CleanDone)
			}
			return nil
		},
		l.CheckInvariants,
	)
}

// CheckInvariants validates the link's cumulative accounting and returns
// the first violation, if any: byte/packet/fault counters are non-negative,
// no recorded completion lies beyond the link's drain point, and the
// fault-free drain point never trails a retransmit-delayed one.
func (l *Link) CheckInvariants() error {
	if l.bytesSent < 0 || l.packets < 0 || l.busy < 0 || l.stall < 0 {
		return fmt.Errorf("cxl: negative link accounting (bytes=%d packets=%d busy=%v stall=%v)",
			l.bytesSent, l.packets, l.busy, l.stall)
	}
	f := l.fstats
	if f.Retries < 0 || f.ReplayedBytes < 0 || f.Poisoned < 0 || f.RetryTime < 0 {
		return fmt.Errorf("cxl: negative fault accounting %+v", f)
	}
	if l.cleanFreeAt > l.freeAt {
		return fmt.Errorf("cxl: fault-free drain %v beyond drain %v", l.cleanFreeAt, l.freeAt)
	}
	for i, t := range l.finishRing {
		if t > l.freeAt {
			return fmt.Errorf("cxl: ring slot %d completion %v beyond drain %v", i, t, l.freeAt)
		}
	}
	return nil
}

// admitRun applies pending-queue admission for one run: the producer is
// back-pressured until the oldest of the last queueCap completions has
// drained, and serialization cannot start before the link is free. SendFlow
// and the per-line reference schedule in perline_test.go share it.
func (l *Link) admitRun(ready sim.Time) (admit, start sim.Time) {
	oldest := l.finishRing[l.ringPos]
	admit = ready
	if oldest > admit {
		admit = oldest
		l.stall += oldest - ready
	}
	start = admit
	if l.freeAt > start {
		start = l.freeAt
	}
	return admit, start
}

// commitRun records one completed run in the link state, however `done` was
// derived (SendFlow's closed form, or the reference's last line event).
func (l *Link) commitRun(done, svc sim.Time, n int) {
	l.freeAt = done
	l.busy += svc
	l.finishRing[l.ringPos] = done
	l.ringPos = (l.ringPos + 1) % l.queueCap
	l.bytesSent += int64(n)
	l.packets++
}

// Fence returns the time at which all traffic enqueued so far has completed,
// but no earlier than `ready`. This is CXLFENCE: it "guarantees the CXL
// coherence traffic by checking the status of CXL controller and home
// agent" (paper §IV-A2).
func (l *Link) Fence(ready sim.Time) sim.Time {
	if l.freeAt > ready {
		return l.freeAt
	}
	return ready
}

// FenceClean is Fence computed against the fault-free drain point: the time
// all traffic would have completed had no fault been injected. The
// difference Fence−FenceClean is the retry latency exposed to a producer
// fencing at `ready`.
func (l *Link) FenceClean(ready sim.Time) sim.Time {
	if l.cleanFreeAt > ready {
		return l.cleanFreeAt
	}
	return ready
}

// Stats returns (payload bytes sent, packets, cumulative busy time,
// cumulative producer stall caused by the pending queue).
func (l *Link) Stats() (bytes int64, packets int64, busy, stall sim.Time) {
	return l.bytesSent, l.packets, l.busy, l.stall
}

// ---------------------------------------------------------------------------
// Packet framing.

// headerSize is the encoded packet header: 8 bytes carrying the line
// address, the aggregation flag (one of the "at least six unused bits" the
// paper repurposes, §V-B), and the dirty-byte length.
const headerSize = 8

// Flags inside the header's top byte.
const (
	flagAggregated = 1 << 7
)

// Packet is one CXL.cache data packet: a 64-byte full cache line, or an
// aggregated payload carrying only the dirty bytes of each 4-byte word.
type Packet struct {
	Addr mem.LineAddr
	// Aggregated marks a DBA payload (header flag bit set).
	Aggregated bool
	// DirtyBytes is the per-word dirty length (1..4) when Aggregated.
	DirtyBytes uint8
	// Payload is LineSize bytes when !Aggregated, or
	// LineSize/4*DirtyBytes bytes when Aggregated.
	Payload []byte
}

// PayloadLen returns the expected payload length for the packet's flags.
func (p *Packet) PayloadLen() int {
	if !p.Aggregated {
		return mem.LineSize
	}
	return mem.LineSize / 4 * int(p.DirtyBytes)
}

// WirePacketBytes returns the on-wire packet size (header + payload) for a
// full-line packet (dirtyBytes <= 0) or a DBA-aggregated packet carrying
// dirtyBytes per 4-byte word — the framing granularity the link-layer
// retry/replay engine retransmits at.
func WirePacketBytes(dirtyBytes int) int {
	if dirtyBytes <= 0 {
		return headerSize + mem.LineSize
	}
	return headerSize + mem.LineSize/4*dirtyBytes
}

// ErrPayloadMismatch reports a packet whose payload length does not match
// its header flags.
var ErrPayloadMismatch = errors.New("cxl: payload length does not match flags")

// AppendEncode serializes the packet into dst's spare capacity (growing it
// only when needed) and returns the extended slice — the allocation-free
// form the functional replay path uses to reuse one flit buffer across
// millions of lines. A payload length inconsistent with the header flags is
// a caller error reported as ErrPayloadMismatch.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	if len(p.Payload) != p.PayloadLen() {
		return nil, fmt.Errorf("%w: payload %dB, want %dB", ErrPayloadMismatch, len(p.Payload), p.PayloadLen())
	}
	base := len(dst)
	var hdr [headerSize]byte
	// 48-bit line address in the low 6 bytes, flags+dirty in byte 7.
	binary.LittleEndian.PutUint64(hdr[:], uint64(p.Addr)&((1<<48)-1))
	var fl byte
	if p.Aggregated {
		fl = flagAggregated | (p.DirtyBytes & 0x7)
	}
	hdr[7] = fl
	dst = append(dst, hdr[:]...)
	dst = append(dst, p.Payload...)
	return dst[:base+headerSize+len(p.Payload)], nil
}

// ErrShortPacket reports a truncated packet buffer.
var ErrShortPacket = errors.New("cxl: short packet")

// DecodeInto parses a packet from buf into p, reusing p.Payload's capacity
// when it suffices so a receive loop decodes without per-packet allocation.
// On error p is left zeroed.
func DecodeInto(p *Packet, buf []byte) error {
	payload := p.Payload[:0]
	*p = Packet{}
	if len(buf) < headerSize {
		return ErrShortPacket
	}
	p.Addr = mem.LineAddr(binary.LittleEndian.Uint64(buf[:8]) & ((1 << 48) - 1))
	fl := buf[7]
	if fl&flagAggregated != 0 {
		p.Aggregated = true
		p.DirtyBytes = fl & 0x7
		if p.DirtyBytes == 0 || p.DirtyBytes > 4 {
			*p = Packet{}
			return fmt.Errorf("cxl: invalid dirty-byte length %d", p.DirtyBytes)
		}
	}
	want := p.PayloadLen()
	if len(buf) < headerSize+want {
		*p = Packet{}
		return ErrShortPacket
	}
	p.Payload = append(payload, buf[headerSize:headerSize+want]...)
	return nil
}
