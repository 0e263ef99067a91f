package core

import (
	"errors"
	"fmt"

	"teco/internal/coherence"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/mem"
	"teco/internal/tensor"
)

// ReplayStats summarizes a functional protocol replay.
type ReplayStats struct {
	// Lines is the number of parameter cache lines updated.
	Lines int64
	// PayloadBytes is the total payload crossing the link CPU->GPU.
	PayloadBytes int64
	// OnDemandTransfers counts critical-path (read-miss) transfers; zero
	// under the update protocol.
	OnDemandTransfers int64
	// FlushData counts update-protocol pushes.
	FlushData int64
	// SnoopEntries is the directory size at the end (zero under update).
	SnoopEntries int
	// Retries counts CRC-failed frames that were retransmitted.
	Retries int64
	// Poisoned counts pushes whose retry budget was exhausted; the line
	// was delivered poisoned and the consumer fell back to an on-demand
	// fetch instead of merging corrupt data.
	Poisoned int64
	// Recovered counts poisoned lines re-fetched on demand.
	Recovered int64
}

// wireScratch holds the per-replay reusable buffers for the functional wire
// path, so the per-line loop runs allocation-free in steady state: the line
// image, the aggregated payload, the encoded frame, the fault model's
// corruption copy, and the decoded packet (whose payload capacity DecodeInto
// recycles). One replay call owns one wireScratch; nothing escapes a
// delivery except through explicit copies.
type wireScratch struct {
	line    []byte     // EncodeLineInto target (one cache line)
	payload []byte     // AppendAggregate target
	frame   []byte     // AppendEncode/AppendEncodeFramed target
	corrupt []byte     // CorruptFrame scratch
	merged  []byte     // DisaggregateInto target (one cache line)
	decoded cxl.Packet // DecodeInto/DecodeFramedInto target
}

func newWireScratch() *wireScratch {
	return &wireScratch{
		line:   make([]byte, mem.LineSize),
		merged: make([]byte, mem.LineSize),
	}
}

// wireDelivery runs one frame across the (possibly faulty) wire: encode with
// the CRC trailer, corrupt per the fault model, decode. CRC failures are
// retransmitted; a push that exhausts `budget` returns cxl.ErrCRC (the
// caller poisons the line). On-demand fetches are critical-path — the
// consumer cannot proceed without the data — so they retry until clean.
// The decoded packet lives in ws.decoded and is valid until the next call.
func (ws *wireScratch) wireDelivery(pkt *cxl.Packet, fm *cxl.FaultModel, onDemand bool, retries *int64) (*cxl.Packet, error) {
	if fm == nil {
		wire, err := pkt.AppendEncode(ws.frame[:0])
		if err != nil {
			return nil, err
		}
		ws.frame = wire
		if err := cxl.DecodeInto(&ws.decoded, wire); err != nil {
			return nil, err
		}
		return &ws.decoded, nil
	}
	frame, err := pkt.AppendEncodeFramed(ws.frame[:0])
	if err != nil {
		return nil, err
	}
	ws.frame = frame
	budget := fm.Config().RetryBudget
	for attempt := 0; ; attempt++ {
		wire, flips := fm.CorruptFrame(frame, ws.corrupt)
		if flips > 0 {
			ws.corrupt = wire
		}
		err := cxl.DecodeFramedInto(&ws.decoded, wire)
		if err == nil {
			return &ws.decoded, nil
		}
		if !errors.Is(err, cxl.ErrCRC) {
			return nil, err
		}
		*retries++
		if !onDemand && attempt >= budget {
			return nil, err
		}
	}
}

// ReplayParameterUpdate drives the full functional stack for one parameter
// update cycle: the CPU writes every cache line of `updated` into the
// coherent domain; payloads are framed as CXL packets (DBA-aggregated when
// configured), decoded on the accelerator side, and merged into the stale
// device copy (`old`). It returns the resulting device-side tensor and the
// protocol statistics.
//
// Under DBA the device tensor is the byte-exact dirty-byte merge: new low
// bytes over old high bytes — the approximation the accuracy experiments
// (Table V, Fig 10, Fig 13) quantify.
//
// With cfg.Faults enabled, frames carry the flit CRC trailer and cross a
// lossy wire: CRC failures are NAK'd and retransmitted; pushes exhausting
// the retry budget are delivered poisoned, the writer keeps ownership, and
// the consumer's next read recovers the line with an on-demand fetch — the
// merge never consumes corrupt bytes.
func ReplayParameterUpdate(old, updated *tensor.Tensor, cfg Config) (*tensor.Tensor, ReplayStats, error) {
	if old.Len() != updated.Len() {
		return nil, ReplayStats{}, fmt.Errorf("core: replay over mismatched tensors (%d vs %d)", old.Len(), updated.Len())
	}
	if cfg.DirtyBytes <= 0 {
		cfg.DirtyBytes = dba.DefaultDirtyBytes
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, ReplayStats{}, err
	}
	var fm *cxl.FaultModel
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		fcfg.Seed = 2*fcfg.Seed + 5
		fm = cxl.MustFaultModel(fcfg) // validated above
	}

	amap := mem.NewMap()
	region := amap.Allocate("params", mem.RegionGiantCache, old.Bytes())
	mode := coherence.Update
	if cfg.Invalidation {
		mode = coherence.Invalidation
	}

	device := old.Clone()
	var stats ReplayStats
	var cbErr error
	var poisoned []mem.LineAddr
	ws := newWireScratch()
	stale := make([]byte, mem.LineSize)

	dom := coherence.NewDomain(coherence.Config{
		Mode:    mode,
		AddrMap: amap,
		OnTransfer: func(tr coherence.Transfer) {
			if cbErr != nil {
				return
			}
			if tr.OnDemand {
				stats.OnDemandTransfers++
			}
			if tr.Msg == coherence.MsgFlushData {
				stats.FlushData++
			}
			line := int64(tr.Line - region.Base.Line())
			// Frame the payload as a CXL packet and apply it to the
			// device copy.
			newLine := updated.EncodeLineInto(line, ws.line)
			var pkt cxl.Packet
			if cfg.DBA && !cfg.Invalidation {
				ws.payload = dba.AppendAggregate(ws.payload[:0], newLine, cfg.DirtyBytes)
				pkt = cxl.Packet{
					Addr:       tr.Line,
					Aggregated: true,
					DirtyBytes: uint8(cfg.DirtyBytes),
					Payload:    ws.payload,
				}
			} else {
				pkt = cxl.Packet{Addr: tr.Line, Payload: newLine}
			}
			decoded, err := ws.wireDelivery(&pkt, fm, tr.OnDemand, &stats.Retries)
			if err != nil {
				if errors.Is(err, cxl.ErrCRC) {
					// Retry budget exhausted: the line arrives poisoned
					// and is NOT merged; the protocol layer recovers it.
					stats.Poisoned++
					poisoned = append(poisoned, tr.Line)
					return
				}
				cbErr = err
				return
			}
			stats.PayloadBytes += int64(decoded.PayloadLen())
			if decoded.Aggregated {
				device.EncodeLineInto(line, stale)
				merged := dba.DisaggregateInto(ws.merged, stale, decoded.Payload, int(decoded.DirtyBytes))
				device.DecodeLine(line, merged)
			} else {
				device.DecodeLine(line, decoded.Payload)
			}
		},
	})

	// drainPoison surfaces the poisoned deliveries to the protocol: the
	// writer reverts to Modified (it still owns the only good copy) and
	// the consumer's copy is invalidated, forcing on-demand recovery.
	drainPoison := func() {
		for _, l := range poisoned {
			dom.PoisonPush(l, coherence.CPU)
		}
		poisoned = poisoned[:0]
	}

	lines := old.Lines()
	stats.Lines = lines
	// Initial condition: the giant cache holds the previous step's
	// parameters (Fig 5: G_S = E).
	for l := int64(0); l < lines; l++ {
		dom.Seed(region.Base.Line()+mem.LineAddr(l), coherence.Accelerator)
	}
	// CPU ADAM pass: vectorized update writes each line once.
	for l := int64(0); l < lines; l++ {
		dom.Write(region.Base.Line()+mem.LineAddr(l), coherence.CPU)
	}
	drainPoison()
	// End-of-iteration flush guarantees everything was pushed (update
	// protocol); poisoned lines are Modified again and survive the flush —
	// the writer keeps the only good copy until the consumer recovers it
	// on demand. Under the invalidation ablation there is no push: dirty
	// lines stay in the CPU cache (or cross at eviction) and the
	// accelerator pulls them on demand — the §IV-A2 critical-path cost.
	if mode == coherence.Update {
		dom.FlushCPU()
	}
	// Accelerator reads all parameters for the next forward pass; under
	// the update protocol these are local hits (or on-demand recoveries of
	// still-poisoned lines), under invalidation they are on-demand fills.
	for l := int64(0); l < lines; l++ {
		dom.Read(region.Base.Line()+mem.LineAddr(l), coherence.Accelerator)
	}
	if cbErr != nil {
		return nil, stats, cbErr
	}
	dom.NoteRetransmit(stats.Retries)
	_, _, stats.Recovered = dom.FaultCounters()
	stats.SnoopEntries = dom.SnoopEntries()
	return device, stats, nil
}

// ReplayGradientFlush drives the reverse functional path: the accelerator
// produces gradient cache lines in the giant-cache region during backward
// ((3) in Fig 6); the update protocol pushes each line to the CPU, which
// assembles its gradient copy for clipping and ADAM. It returns the
// CPU-side tensor and protocol statistics. Gradients never use DBA (paper
// §V: "the gradients transfers from the accelerator to CPU cannot apply
// DBA"), so every payload is a full 64-byte line.
func ReplayGradientFlush(grads *tensor.Tensor, cfg Config) (*tensor.Tensor, ReplayStats, error) {
	if err := cfg.Faults.Validate(); err != nil {
		return nil, ReplayStats{}, err
	}
	var fm *cxl.FaultModel
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		fcfg.Seed = 2*fcfg.Seed + 6
		fm = cxl.MustFaultModel(fcfg) // validated above
	}

	amap := mem.NewMap()
	region := amap.Allocate("grads", mem.RegionGiantCache, grads.Bytes())
	mode := coherence.Update
	if cfg.Invalidation {
		mode = coherence.Invalidation
	}

	cpuCopy := tensor.New(grads.Name()+"-cpu", grads.Len())
	var stats ReplayStats
	var cbErr error
	var poisoned []mem.LineAddr
	ws := newWireScratch()
	dom := coherence.NewDomain(coherence.Config{
		Mode:    mode,
		AddrMap: amap,
		OnTransfer: func(tr coherence.Transfer) {
			if cbErr != nil {
				return
			}
			if tr.OnDemand {
				stats.OnDemandTransfers++
			}
			if tr.Msg == coherence.MsgFlushData {
				stats.FlushData++
			}
			line := int64(tr.Line - region.Base.Line())
			pkt := cxl.Packet{Addr: tr.Line, Payload: grads.EncodeLineInto(line, ws.line)}
			decoded, err := ws.wireDelivery(&pkt, fm, tr.OnDemand, &stats.Retries)
			if err != nil {
				if errors.Is(err, cxl.ErrCRC) {
					stats.Poisoned++
					poisoned = append(poisoned, tr.Line)
					return
				}
				cbErr = err
				return
			}
			stats.PayloadBytes += int64(decoded.PayloadLen())
			cpuCopy.DecodeLine(line, decoded.Payload)
		},
	})

	lines := grads.Lines()
	stats.Lines = lines
	// Backward writes each gradient line once on the accelerator.
	for l := int64(0); l < lines; l++ {
		dom.Write(region.Base.Line()+mem.LineAddr(l), coherence.Accelerator)
	}
	for _, l := range poisoned {
		dom.PoisonPush(l, coherence.Accelerator)
	}
	poisoned = poisoned[:0]
	// CPU reads all gradients for clipping; under the update protocol the
	// data already arrived (poisoned lines recover on demand), under
	// invalidation each read is on demand.
	for l := int64(0); l < lines; l++ {
		dom.Read(region.Base.Line()+mem.LineAddr(l), coherence.CPU)
	}
	if cbErr != nil {
		return nil, stats, cbErr
	}
	dom.NoteRetransmit(stats.Retries)
	_, _, stats.Recovered = dom.FaultCounters()
	stats.SnoopEntries = dom.SnoopEntries()
	return cpuCopy, stats, nil
}
