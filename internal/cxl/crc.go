package cxl

import (
	"encoding/binary"
	"errors"
)

// CXL flits carry a 2-byte CRC (the 68-byte flit = 64 payload + 2 header +
// 2 CRC). This file provides the data-integrity half of the retry/replay
// engine: a CRC-16 over the packet wire image, so a corrupted frame is
// *detected* and NAKed instead of being decoded into wrong data.

// crcTable is the byte-at-a-time lookup table for CRC-16/CCITT-FALSE. The
// checkpoint subsystem runs this CRC over multi-megabyte tensor snapshots
// every training step, so the bitwise loop is folded into a table once.
var crcTable = func() (t [256]uint16) {
	for b := 0; b < 256; b++ {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return
}()

// CRC16 computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over p —
// the polynomial family CXL's link layer uses for flit protection.
func CRC16(p []byte) uint16 {
	return UpdateCRC16(0xFFFF, p)
}

// crcSlice extends crcTable to slicing-by-4: crcSlice[k][b] is the CRC
// (zero initial state) of byte b followed by k zero bytes. CRC is linear
// over GF(2), so four input bytes fold in one step: the 16-bit state XORs
// into the first two bytes and each byte's contribution — advanced past
// the bytes after it — combines by XOR. Same function, same bits as the
// byte-at-a-time loop; it only reads four table lanes per four bytes
// instead of chaining four dependent lookups.
var crcSlice = func() (t [4][256]uint16) {
	for b := 0; b < 256; b++ {
		c := crcTable[b]
		t[0][b] = c
		for k := 1; k < 4; k++ {
			c = c<<8 ^ crcTable[byte(c>>8)]
			t[k][b] = c
		}
	}
	return
}()

// UpdateCRC16 continues a CRC-16/CCITT-FALSE computation over p from a
// previous state (start from 0xFFFF), so large tensors can be checksummed
// in chunks without concatenating their bytes. Snapshot sections and the
// disk cache CRC parameter-sized payloads, so the loop is sliced: four
// bytes per iteration with independent table lookups (the tail falls back
// to byte-at-a-time), bit-identical to the serial definition.
func UpdateCRC16(crc uint16, p []byte) uint16 {
	for len(p) >= 4 {
		crc = crcSlice[3][p[0]^byte(crc>>8)] ^
			crcSlice[2][p[1]^byte(crc)] ^
			crcSlice[1][p[2]] ^
			crcSlice[0][p[3]]
		p = p[4:]
	}
	for _, b := range p {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// ErrCRC reports a framed packet whose CRC check failed — the condition
// that consumes a replay-buffer slot and triggers NAK + retransmit.
var ErrCRC = errors.New("cxl: CRC mismatch")

// EncodeFramed serializes the packet with a trailing 2-byte CRC over the
// wire image, as the link layer would frame it into CRC-protected flits.
func (p *Packet) EncodeFramed() ([]byte, error) {
	return p.AppendEncodeFramed(nil)
}

// AppendEncodeFramed is EncodeFramed into dst's spare capacity — the
// allocation-free form for loops that frame one packet per cache line.
func (p *Packet) AppendEncodeFramed(dst []byte) ([]byte, error) {
	base := len(dst)
	dst, err := p.AppendEncode(dst)
	if err != nil {
		return nil, err
	}
	var tail [2]byte
	binary.LittleEndian.PutUint16(tail[:], CRC16(dst[base:]))
	return append(dst, tail[:]...), nil
}

// DecodeFramed verifies the trailing CRC and decodes the packet. A CRC
// failure returns ErrCRC: the receiver must NAK, never deliver the data.
func DecodeFramed(buf []byte) (Packet, error) {
	var p Packet
	err := DecodeFramedInto(&p, buf)
	return p, err
}

// DecodeFramedInto is DecodeFramed reusing p's payload capacity (see
// DecodeInto). p is zeroed on any error.
func DecodeFramedInto(p *Packet, buf []byte) error {
	if len(buf) < 2 {
		*p = Packet{}
		return ErrShortPacket
	}
	body, tail := buf[:len(buf)-2], buf[len(buf)-2:]
	if CRC16(body) != binary.LittleEndian.Uint16(tail) {
		*p = Packet{}
		return ErrCRC
	}
	return DecodeInto(p, body)
}
