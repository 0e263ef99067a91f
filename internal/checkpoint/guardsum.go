package checkpoint

import (
	"hash/crc32"
	"unsafe"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// GuardSum returns the CRC-32C of v's in-memory FP32 words — the in-process
// silent-data-corruption mark the trainer keeps per fixed-quantum chunk of
// each resident tensor. It reads v through a direct byte view (no staging
// copy), which is what lets hash/crc32's hardware Castagnoli path run at
// memory speed; the sum therefore depends on host byte order and must never
// be serialised or compared across processes. Every wire and on-disk format
// keeps CRC-16 (Checksum and the section/frame CRCs). Allocation-free.
func GuardSum(v []float32) uint32 {
	if len(v) == 0 {
		return 0
	}
	return crc32.Checksum(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)), castagnoli)
}
