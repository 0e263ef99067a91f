package diskcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeEntry drives the entry decoder with arbitrary bytes under an
// arbitrary lookup key: it must never panic, and any image it accepts must
// be exactly what encode writes for that key and payload, so no two byte
// strings can serve the same entry. Seeded with the tecosimd cache entries
// of the server's format museum, each under the key its file name carries.
func FuzzDecodeEntry(f *testing.F) {
	museum, err := filepath.Glob("../server/testdata/museum/res-*.teco")
	if err != nil || len(museum) == 0 {
		f.Fatalf("museum entries: %v, %v", museum, err)
	}
	for _, path := range museum {
		wire, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "res-"), ".teco")
		key, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, key)
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte(Magic), uint64(0))
	f.Add(encode(7, nil), uint64(7))
	f.Fuzz(func(t *testing.T, wire []byte, key uint64) {
		payload, err := decode(wire, key)
		if err != nil {
			return
		}
		if re := encode(key, payload); !bytes.Equal(re, wire) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(wire), len(re))
		}
	})
}
