package conformance

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"teco/internal/cxl"
	"teco/internal/mem"
	"teco/internal/realtrain"
)

// corpusDirs maps each fuzz target to its seed-corpus directory, relative
// to this package. go test loads these automatically as fuzz seeds, so the
// corpora harden the 10s/30s CI fuzz passes with wire images harvested from
// a real seed-42 training trace instead of hand-typed bytes.
var corpusDirs = map[string]string{
	"FuzzDecode":         filepath.Join("..", "cxl", "testdata", "fuzz", "FuzzDecode"),
	"FuzzDecodeFramed":   filepath.Join("..", "cxl", "testdata", "fuzz", "FuzzDecodeFramed"),
	"FuzzDecodeSnapshot": filepath.Join("..", "checkpoint", "testdata", "fuzz", "FuzzDecodeSnapshot"),
}

// corpusEntry renders one []byte input in Go's native corpus encoding.
func corpusEntry(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// harvest produces the corpus inputs from a small canonical-seed training
// run: real parameter bytes framed as full-line and DBA-aggregated CXL
// packets (plain, CRC-framed, and corrupted), and the run's checkpoint
// snapshot image.
func harvest(t *testing.T) map[string][][]byte {
	t.Helper()
	tr, err := realtrain.NewTrainer(realtrain.Config{
		Steps: 6, PreSteps: 20, Hidden: 16, Batch: 4, Seed: GoldenSeed,
		DBA: true, ActAfterSteps: 2, SampleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Trained parameter bytes — the realistic payload distribution (biased
	// exponents, clustered low-byte churn) the simulator actually ships.
	params := tr.MasterParams()
	line := make([]byte, mem.LineSize)
	for i := 0; i < len(line)/4 && i < len(params); i++ {
		bits := math.Float32bits(params[i])
		line[4*i] = byte(bits)
		line[4*i+1] = byte(bits >> 8)
		line[4*i+2] = byte(bits >> 16)
		line[4*i+3] = byte(bits >> 24)
	}
	full := cxl.Packet{Addr: 0x40 * 7, Payload: line}
	agg := cxl.Packet{Addr: 0x40 * 9, Aggregated: true, DirtyBytes: 2,
		Payload: line[:2*(mem.LineSize/4)]}

	var plain, framed [][]byte
	for _, p := range []*cxl.Packet{&full, &agg} {
		wire, err := p.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := p.AppendEncodeFramed(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations and single-bit corruption: the decode error paths a
		// faulty link actually produces.
		clipped := wire[:len(wire)-3]
		flipped := append([]byte(nil), fr...)
		flipped[len(flipped)-1] ^= 0x01 // break the CRC trailer
		plain = append(plain, wire, clipped)
		framed = append(framed, fr, flipped, wire) // unframed bytes through the framed decoder
	}

	snap := tr.Snapshot().Encode()
	truncated := snap[:len(snap)/2]

	return map[string][][]byte{
		"FuzzDecode":         plain,
		"FuzzDecodeFramed":   framed,
		"FuzzDecodeSnapshot": {snap, truncated},
	}
}

// TestFuzzCorpus pins the harvested seed corpora. With -update it rewrites
// the corpus files; without, it asserts every corpus file is present and
// byte-identical to what the harvest produces (the corpora are as
// deterministic as the goldens — same seed, same trace).
func TestFuzzCorpus(t *testing.T) {
	inputs := harvest(t)
	for target, dir := range corpusDirs {
		entries := inputs[target]
		if len(entries) == 0 {
			t.Fatalf("no harvested inputs for %s", target)
		}
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, data := range entries {
			path := filepath.Join(dir, "conformance-"+strconv.Itoa(i))
			want := corpusEntry(data)
			if *update {
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s: missing corpus file (run -update): %v", target, err)
				continue
			}
			if string(got) != string(want) {
				t.Errorf("%s: corpus file %s drifted from the harvested trace", target, path)
			}
			if !strings.HasPrefix(string(got), "go test fuzz v1\n") {
				t.Errorf("%s: corpus file %s not in native corpus format", target, path)
			}
		}
	}
}
