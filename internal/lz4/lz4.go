// Package lz4 implements the LZ4 block format (compressor and
// decompressor) from scratch. It is the lossless-compression baseline of
// the paper's Table VIII: the authors run multi-threaded LZ4 on CPU and
// nvCOMP's LZ4 on GPU over parameter tensors and find both low compression
// ratios (0-36%) and large runtime overhead, concluding DBA cannot be
// replaced by lossless compression.
//
// The implementation follows the LZ4 block specification: sequences of
// [token | literal-length+ | literals | 2-byte offset | match-length+],
// greedy matching through a 4-byte hash chain, ending with a literal-only
// sequence.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	minMatch = 4
	// hashLog is the size of the match hash table (2^hashLog entries).
	hashLog   = 16
	hashShift = 32 - hashLog
	// mfLimit: matches must not start within the last 12 bytes.
	mfLimit = 12
	// lastLiterals: the final 5 bytes are always literals.
	lastLiterals = 5
	maxOffset    = 65535
)

func hash4(u uint32) uint32 {
	return (u * 2654435761) >> hashShift
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// Compress appends the LZ4 block encoding of src to dst and returns the
// extended buffer. Empty input encodes to an empty block.
func Compress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	if len(src) < mfLimit+minMatch {
		return emitLastLiterals(dst, src)
	}

	var table [1 << hashLog]int32
	for i := range table {
		table[i] = -1
	}

	anchor := 0
	pos := 0
	limit := len(src) - mfLimit

	for pos < limit {
		h := hash4(load32(src, pos))
		cand := table[h]
		table[h] = int32(pos)
		if cand < 0 || pos-int(cand) > maxOffset || load32(src, int(cand)) != load32(src, pos) {
			pos++
			continue
		}
		// Extend the match forward.
		matchStart := int(cand)
		matchLen := minMatch
		maxLen := len(src) - lastLiterals - pos
		for matchLen < maxLen && src[matchStart+matchLen] == src[pos+matchLen] {
			matchLen++
		}
		if matchLen < minMatch {
			pos++
			continue
		}
		// Emit sequence: literals [anchor, pos) + match.
		dst = emitSequence(dst, src[anchor:pos], pos-matchStart, matchLen)
		pos += matchLen
		anchor = pos
		// Prime the table inside the match for better future matches.
		if pos < limit {
			table[hash4(load32(src, pos-2))] = int32(pos - 2)
		}
	}
	return emitLastLiterals(dst, src[anchor:])
}

// emitSequence writes one token + literals + match reference.
func emitSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	ml := matchLen - minMatch
	token := byte(0)
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 0x0F
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLength(dst, litLen-15)
	}
	dst = append(dst, literals...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = appendLength(dst, ml-15)
	}
	return dst
}

// emitLastLiterals writes the final literal-only sequence.
func emitLastLiterals(dst, literals []byte) []byte {
	litLen := len(literals)
	if litLen >= 15 {
		dst = append(dst, 0xF0)
		dst = appendLength(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, literals...)
}

func appendLength(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompression errors.
var (
	ErrCorrupt  = errors.New("lz4: corrupt block")
	ErrTooLarge = errors.New("lz4: decompressed size exceeds limit")
)

// Decompress decodes an LZ4 block, appending to dst. maxSize bounds the
// decompressed size (0 means no bound).
func Decompress(dst, src []byte, maxSize int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, i, err = readLength(src, i, litLen)
			if err != nil {
				return dst, err
			}
		}
		if i+litLen > len(src) {
			return dst, ErrCorrupt
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if maxSize > 0 && len(dst)-base > maxSize {
			return dst, ErrTooLarge
		}
		if i == len(src) {
			return dst, nil // final literal-only sequence
		}
		// Match.
		if i+2 > len(src) {
			return dst, ErrCorrupt
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(dst)-base {
			return dst, ErrCorrupt
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			var err error
			matchLen, i, err = readLength(src, i, matchLen)
			if err != nil {
				return dst, err
			}
		}
		matchLen += minMatch
		if maxSize > 0 && len(dst)-base+matchLen > maxSize {
			return dst, ErrTooLarge
		}
		// Overlapping copy, byte by byte (offsets < matchLen overlap).
		start := len(dst) - offset
		for k := 0; k < matchLen; k++ {
			dst = append(dst, dst[start+k])
		}
	}
	return dst, nil
}

func readLength(src []byte, i, base int) (int, int, error) {
	n := base
	for {
		if i >= len(src) {
			return 0, i, ErrCorrupt
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}

// Ratio returns the space saving of compressing data: 1 - compressed/raw.
// Negative savings (expansion) clamp to 0, matching how the paper reports
// "compression ratio" per model (0% for incompressible parameters).
func Ratio(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	c := Compress(nil, data)
	r := 1 - float64(len(c))/float64(len(data))
	if r < 0 {
		return 0
	}
	return r
}

// MustRoundTrip panics unless data survives compress+decompress unchanged;
// used by harness self-checks.
func MustRoundTrip(data []byte) {
	c := Compress(nil, data)
	d, err := Decompress(nil, c, 0)
	if err != nil {
		panic(fmt.Sprintf("lz4: roundtrip decode failed: %v", err))
	}
	if len(d) != len(data) {
		panic(fmt.Sprintf("lz4: roundtrip length %d != %d", len(d), len(data)))
	}
	for i := range d {
		if d[i] != data[i] {
			panic(fmt.Sprintf("lz4: roundtrip mismatch at %d", i))
		}
	}
}
