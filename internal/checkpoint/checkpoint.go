// Package checkpoint implements step-level crash recovery for training
// runs: a CRC-framed, versioned binary snapshot format for parameter
// tensors, ADAM moment vectors, RNG state and step counters; an on-disk
// store with keep-last-K retention; the one durable-write primitive
// (WriteAtomic: temp file, fsync, rename, directory fsync; SweepTemps on
// open) that both the store and the sweep daemon's result cache
// (internal/diskcache) write through; and the fault plan (Faults: crashes,
// short writes, transient errors, bit flips, truncation) that proves a
// crash or a corrupted file is always detected and never loaded.
//
// Integrity reuses the CXL link layer's CRC-16/CCITT-FALSE
// (internal/cxl/crc.go): every section of a snapshot is framed with a
// trailing CRC over its wire image, exactly like a flit-framed packet, so
// a truncated file or a flipped bit anywhere in a tensor fails closed with
// ErrCorrupt. Restores must be bit-exact — TECO's giant-cache + DBA design
// means a single undetected corrupt merge silently diverges training — so
// the format stores raw FP32 bit patterns and the RNG draw count needed to
// fast-forward a seeded source to the exact stream position.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"teco/internal/cxl"
	"teco/internal/tensor"
)

// Format constants. Version is bumped on any wire-image change; decoders
// reject versions they do not understand rather than guessing.
const (
	// Magic opens every snapshot file.
	Magic = "TECOCKPT"
	// Version is the current format version.
	Version = 1
)

// ErrCorrupt reports a snapshot whose framing or CRC check failed — the
// file must never be loaded; the store falls back to the previous one.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Sample is one recorded point of the loss trajectory, carried inside the
// snapshot so a resumed run reproduces the uninterrupted run's full sample
// list bit-for-bit.
type Sample struct {
	Step      int64
	Loss      float64
	DBAActive bool
	ParamDist tensor.Distribution
	GradDist  tensor.Distribution
}

// Snapshot is everything a training step needs to resume bit-identically:
// the CPU master parameters, the accelerator compute copy (with its DBA
// staleness intact), both ADAM moment vectors and the optimizer step count
// (the bias corrections depend on it), the previous-step tensors the
// byte-change distributions diff against, the RNG fast-forward position,
// and the recorded loss trajectory so far.
type Snapshot struct {
	// ConfigTag fingerprints the owning run's configuration; restore into
	// a differently-configured trainer is refused.
	ConfigTag uint64
	// Seed is the run seed (data, init, batches and the fault model all
	// derive their streams from it).
	Seed int64
	// Step is the number of completed fine-tuning steps.
	Step int64
	// AdamStep is the optimizer's internal step counter.
	AdamStep int64
	// ActivatedAt is the step DBA switched on, -1 if not yet.
	ActivatedAt int64
	// RNGDraws is how many source draws the run's batch RNG has consumed;
	// restore replays exactly this many draws from the seed.
	RNGDraws uint64

	Params     []float32 // CPU master copy
	Compute    []float32 // accelerator copy (possibly DBA-stale high bytes)
	AdamM      []float32 // first moments
	AdamV      []float32 // second moments
	PrevParams []float32 // previous sampled master (distribution baseline)
	PrevGrads  []float32 // previous gradients (distribution baseline)

	Samples []Sample
}

// Section names of the wire format, in encode order.
const (
	secMeta       = "meta"
	secParams     = "params"
	secCompute    = "compute"
	secAdamM      = "adam.m"
	secAdamV      = "adam.v"
	secPrevParams = "prev.params"
	secPrevGrads  = "prev.grads"
	secSamples    = "samples"
)

// Encode serializes the snapshot: magic, version, section count, then each
// section framed as [u8 name length][name][u32 payload length][payload]
// [u16 CRC over name+payload].
func (s *Snapshot) Encode() []byte {
	var out []byte
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, 8) // section count

	out = appendSection(out, secMeta, s.encodeMeta())
	out = appendSection(out, secParams, encodeF32(s.Params))
	out = appendSection(out, secCompute, encodeF32(s.Compute))
	out = appendSection(out, secAdamM, encodeF32(s.AdamM))
	out = appendSection(out, secAdamV, encodeF32(s.AdamV))
	out = appendSection(out, secPrevParams, encodeF32(s.PrevParams))
	out = appendSection(out, secPrevGrads, encodeF32(s.PrevGrads))
	out = appendSection(out, secSamples, s.encodeSamples())
	return out
}

func (s *Snapshot) encodeMeta() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, s.ConfigTag)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Seed))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Step))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.AdamStep))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.ActivatedAt))
	b = binary.LittleEndian.AppendUint64(b, s.RNGDraws)
	return b
}

func (s *Snapshot) encodeSamples() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Samples)))
	for _, sm := range s.Samples {
		b = binary.LittleEndian.AppendUint64(b, uint64(sm.Step))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sm.Loss))
		if sm.DBAActive {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for _, c := range sm.ParamDist.Counts {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
		for _, c := range sm.GradDist.Counts {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	return b
}

func appendSection(out []byte, name string, payload []byte) []byte {
	out = append(out, byte(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	crc := cxl.UpdateCRC16(0xFFFF, []byte(name))
	crc = cxl.UpdateCRC16(crc, payload)
	return binary.LittleEndian.AppendUint16(out, crc)
}

func encodeF32(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

func decodeF32(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: tensor payload %d bytes not word-aligned", ErrCorrupt, len(b))
	}
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v, nil
}

// Decode parses and CRC-verifies a snapshot wire image. Any framing
// violation, CRC mismatch, truncation, or trailing garbage returns an
// error wrapping ErrCorrupt: a damaged snapshot is never partially loaded.
func Decode(buf []byte) (*Snapshot, error) {
	if len(buf) < len(Magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(buf))
	}
	if string(buf[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := buf[len(Magic):]
	ver := binary.LittleEndian.Uint16(rest)
	if ver != Version {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (have %d)", ver, Version)
	}
	nsec := int(binary.LittleEndian.Uint16(rest[2:]))
	rest = rest[4:]

	s := &Snapshot{ActivatedAt: -1}
	seen := map[string]bool{}
	for i := 0; i < nsec; i++ {
		name, payload, tail, err := readSection(rest)
		if err != nil {
			return nil, err
		}
		rest = tail
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		seen[name] = true
		if err := s.decodeSection(name, payload); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	for _, req := range []string{secMeta, secParams, secCompute, secAdamM, secAdamV, secPrevParams, secPrevGrads, secSamples} {
		if !seen[req] {
			return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, req)
		}
	}
	return s, nil
}

func readSection(b []byte) (name string, payload, rest []byte, err error) {
	if len(b) < 1 {
		return "", nil, nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
	}
	nameLen := int(b[0])
	b = b[1:]
	if nameLen == 0 || len(b) < nameLen+4 {
		return "", nil, nil, fmt.Errorf("%w: truncated section name", ErrCorrupt)
	}
	name = string(b[:nameLen])
	plen := int(binary.LittleEndian.Uint32(b[nameLen:]))
	b = b[nameLen+4:]
	if plen < 0 || len(b) < plen+2 {
		return "", nil, nil, fmt.Errorf("%w: truncated section %q", ErrCorrupt, name)
	}
	payload = b[:plen]
	crc := cxl.UpdateCRC16(0xFFFF, []byte(name))
	crc = cxl.UpdateCRC16(crc, payload)
	if crc != binary.LittleEndian.Uint16(b[plen:]) {
		return "", nil, nil, fmt.Errorf("%w: CRC mismatch in section %q", ErrCorrupt, name)
	}
	return name, payload, b[plen+2:], nil
}

func (s *Snapshot) decodeSection(name string, payload []byte) error {
	var err error
	switch name {
	case secMeta:
		if len(payload) != 48 {
			return fmt.Errorf("%w: meta section %d bytes, want 48", ErrCorrupt, len(payload))
		}
		s.ConfigTag = binary.LittleEndian.Uint64(payload)
		s.Seed = int64(binary.LittleEndian.Uint64(payload[8:]))
		s.Step = int64(binary.LittleEndian.Uint64(payload[16:]))
		s.AdamStep = int64(binary.LittleEndian.Uint64(payload[24:]))
		s.ActivatedAt = int64(binary.LittleEndian.Uint64(payload[32:]))
		s.RNGDraws = binary.LittleEndian.Uint64(payload[40:])
	case secParams:
		s.Params, err = decodeF32(payload)
	case secCompute:
		s.Compute, err = decodeF32(payload)
	case secAdamM:
		s.AdamM, err = decodeF32(payload)
	case secAdamV:
		s.AdamV, err = decodeF32(payload)
	case secPrevParams:
		s.PrevParams, err = decodeF32(payload)
	case secPrevGrads:
		s.PrevGrads, err = decodeF32(payload)
	case secSamples:
		s.Samples, err = decodeSamples(payload)
	default:
		// Unknown sections are skipped (their CRC already verified), so a
		// future writer can add sections without breaking old readers.
	}
	return err
}

func decodeSamples(b []byte) ([]Sample, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated sample count", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	nc := len(tensor.Distribution{}.Counts)
	recBytes := 8 + 8 + 1 + 8*nc*2
	if len(b) != n*recBytes {
		return nil, fmt.Errorf("%w: sample section %d bytes for %d records", ErrCorrupt, len(b), n)
	}
	out := make([]Sample, n)
	for i := range out {
		r := b[i*recBytes:]
		out[i].Step = int64(binary.LittleEndian.Uint64(r))
		out[i].Loss = math.Float64frombits(binary.LittleEndian.Uint64(r[8:]))
		out[i].DBAActive = r[16] != 0
		for c := 0; c < nc; c++ {
			out[i].ParamDist.Counts[c] = int64(binary.LittleEndian.Uint64(r[17+8*c:]))
			out[i].GradDist.Counts[c] = int64(binary.LittleEndian.Uint64(r[17+8*nc+8*c:]))
		}
	}
	return out, nil
}

// Checksum returns the CRC-16 of a tensor's raw FP32 bit patterns in wire
// (little-endian) order — the same bytes and polynomial the snapshot
// section CRCs cover, so it is portable across hosts. The trainer's
// in-memory SDC guard uses the faster, process-local GuardSum instead.
func Checksum(v []float32) uint16 {
	crc := uint16(0xFFFF)
	var buf [1024]byte
	for len(v) > 0 {
		n := len(buf) / 4
		if n > len(v) {
			n = len(v)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v[i]))
		}
		crc = cxl.UpdateCRC16(crc, buf[:4*n])
		v = v[n:]
	}
	return crc
}
