// Package tensor provides FP32 tensors with byte-level views and the
// value-changed-byte classification behind the paper's Figure 2.
package tensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"teco/internal/mem"
)

// Tensor is a named, flat FP32 tensor.
type Tensor struct {
	name string
	data []float32
}

// New allocates a zeroed tensor of n elements.
func New(name string, n int) *Tensor {
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative size %d", n))
	}
	return &Tensor{name: name, data: make([]float32, n)}
}

// FromSlice wraps (not copies) an existing slice.
func FromSlice(name string, data []float32) *Tensor {
	return &Tensor{name: name, data: data}
}

// Name returns the tensor's name.
func (t *Tensor) Name() string { return t.name }

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.data) }

// Bytes returns the byte footprint (4 bytes per FP32 element).
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Lines returns the number of 64-byte cache lines covering the tensor.
func (t *Tensor) Lines() int64 { return mem.LinesIn(t.Bytes()) }

// Data returns the underlying slice (shared, not copied).
func (t *Tensor) Data() []float32 { return t.data }

// At returns element i.
func (t *Tensor) At(i int) float32 { return t.data[i] }

// Set stores v at element i.
func (t *Tensor) Set(i int, v float32) { t.data[i] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{name: t.name, data: d}
}

// CopyFrom copies src's elements into t; lengths must match.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: copy %d into %d elements", len(src.data), len(t.data)))
	}
	copy(t.data, src.data)
}

// EncodeLine serializes elements [16*line, 16*line+16) into a 64-byte
// little-endian cache-line image, zero-padding past the end of the tensor.
func (t *Tensor) EncodeLine(line int64) []byte {
	return t.EncodeLineInto(line, make([]byte, mem.LineSize))
}

// EncodeLineInto is EncodeLine writing into a caller-owned 64-byte buffer
// (returned for convenience), for per-line loops that must not allocate.
// Bytes past the end of the tensor are zeroed, matching a fresh buffer.
func (t *Tensor) EncodeLineInto(line int64, buf []byte) []byte {
	if len(buf) != mem.LineSize {
		panic(fmt.Sprintf("tensor: line buffer %dB", len(buf)))
	}
	base := int(line) * 16
	for i := 0; i < 16; i++ {
		idx := base + i
		if idx >= len(t.data) {
			for j := i * 4; j < mem.LineSize; j++ {
				buf[j] = 0
			}
			break
		}
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(t.data[idx]))
	}
	return buf
}

// DecodeLine overwrites elements [16*line, ...) from a 64-byte image,
// ignoring bytes past the end of the tensor.
func (t *Tensor) DecodeLine(line int64, buf []byte) {
	if len(buf) != mem.LineSize {
		panic(fmt.Sprintf("tensor: line buffer %dB", len(buf)))
	}
	base := int(line) * 16
	for i := 0; i < 16; i++ {
		idx := base + i
		if idx >= len(t.data) {
			break
		}
		t.data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
}

// ---------------------------------------------------------------------------
// Value-changed-byte classification (paper Figure 2).

// ChangeClass categorizes how a 4-byte FP32 value changed between two
// consecutive training steps.
type ChangeClass int

const (
	// Unchanged: the value is bit-identical.
	Unchanged ChangeClass = iota
	// LastByte: only the least-significant byte changed (Fig 2 case 1).
	LastByte
	// LastTwoBytes: changes confined to the two least-significant bytes,
	// touching the second byte (Fig 2 case 2).
	LastTwoBytes
	// Other: any change reaching the exponent/sign or high-mantissa bytes
	// (Fig 2 case 3).
	Other
	numChangeClasses
)

func (c ChangeClass) String() string {
	switch c {
	case Unchanged:
		return "unchanged"
	case LastByte:
		return "last-byte"
	case LastTwoBytes:
		return "last-two-bytes"
	case Other:
		return "other"
	default:
		return fmt.Sprintf("ChangeClass(%d)", int(c))
	}
}

// Classify compares old and new FP32 values byte-wise (little-endian
// significance order) and returns the Fig 2 class.
func Classify(old, new float32) ChangeClass {
	x := math.Float32bits(old) ^ math.Float32bits(new)
	switch {
	case x == 0:
		return Unchanged
	case x&0xFFFFFF00 == 0:
		return LastByte
	case x&0xFFFF0000 == 0:
		return LastTwoBytes
	default:
		return Other
	}
}

// Distribution counts values per change class for one step pair.
type Distribution struct {
	Counts [4]int64
}

// Observe accumulates the classification of one (old, new) pair.
func (d *Distribution) Observe(old, new float32) {
	d.Counts[Classify(old, new)]++
}

// Total returns the number of observations.
func (d *Distribution) Total() int64 {
	var n int64
	for _, c := range d.Counts {
		n += c
	}
	return n
}

// Changed returns the number of value-changed observations.
func (d *Distribution) Changed() int64 { return d.Total() - d.Counts[Unchanged] }

// FracOfChanged returns the fraction of *changed* values in class c — the
// quantity Fig 2 plots ("among those value-changed parameters...").
func (d *Distribution) FracOfChanged(c ChangeClass) float64 {
	ch := d.Changed()
	if ch == 0 {
		return 0
	}
	return float64(d.Counts[c]) / float64(ch)
}

// FracUnchanged returns the fraction of all values that did not change —
// the paper's "44.5% of parameters do not change values" observation.
func (d *Distribution) FracUnchanged() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d.Counts[Unchanged]) / float64(t)
}

// Add merges another distribution into d.
func (d *Distribution) Add(o Distribution) {
	for i := range d.Counts {
		d.Counts[i] += o.Counts[i]
	}
}
