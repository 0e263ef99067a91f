package diskcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"teco/internal/checkpoint"
)

func openTemp(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTemp(t, Config{})
	payload := []byte("the tables of experiment table1 at seed 42")
	const key = 0xDEADBEEFCAFEF00D
	if _, ok, err := c.Get(key); ok || err != nil {
		t.Fatalf("Get before Put: ok=%v err=%v", ok, err)
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(key)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put: ok=%v err=%v got=%q", ok, err, got)
	}
	// Re-putting identical bytes is a no-op; differing bytes are an error
	// (content-addressing violated upstream), and the stored entry stays.
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte("different")); err == nil {
		t.Fatal("Put with differing payload under the same key must fail")
	}
	got, ok, _ = c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("original entry must survive a rejected conflicting Put")
	}
	st := c.Stats()
	if st.Puts != 1 || st.PutNoops != 1 {
		t.Fatalf("stats: %+v, want Puts=1 PutNoops=1", st)
	}
}

func TestReopenFindsEntries(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, Config{Dir: dir})
	if err := c.Put(7, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(8, []byte("eight")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := openTemp(t, Config{Dir: dir})
	if c2.Len() != 2 {
		t.Fatalf("reopened cache indexes %d keys, want 2", c2.Len())
	}
	got, ok, err := c2.Get(7)
	if err != nil || !ok || string(got) != "seven" {
		t.Fatalf("reopened Get: %q %v %v", got, ok, err)
	}
}

// TestCorruptionEveryBitOffset is the satellite coverage: flip a bit at
// every byte offset of a small cached entry and assert every single damage
// site is detected by CRC and recomputed — a corrupt payload byte is never
// served. (A bit flip in the payload-length field can masquerade as
// truncation, a flip in the magic as a foreign file; all must fail closed.)
func TestCorruptionEveryBitOffset(t *testing.T) {
	payload := []byte("short cached result, every byte matters")
	const key = 42
	dir := t.TempDir()
	c := openTemp(t, Config{Dir: dir})
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	entrySize := int64(overhead + len(payload))
	for off := int64(0); off < entrySize; off++ {
		// Flip one bit in byte `off` (rotate which bit by offset so the
		// sweep exercises different positions).
		bit := off*8 + off%8
		if err := checkpoint.FlipBit(c.EntryPath(key), bit); err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		got, ok, err := c.Get(key)
		if err != nil {
			t.Fatalf("offset %d: Get error %v", off, err)
		}
		if ok {
			t.Fatalf("offset %d: corrupt entry served: %q", off, got)
		}
		// Recompute path: the caller re-Puts the canonical bytes.
		if err := c.Put(key, payload); err != nil {
			t.Fatalf("offset %d: recompute Put: %v", off, err)
		}
		got, ok, err = c.Get(key)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("offset %d: after recompute: ok=%v err=%v got=%q", off, ok, err, got)
		}
	}
	if st := c.Stats(); st.CorruptDropped != entrySize {
		t.Fatalf("CorruptDropped = %d, want %d (one per damaged offset)", st.CorruptDropped, entrySize)
	}
}

// TestTruncationEveryLength removes every possible tail length and asserts
// the torn entry is always detected and recomputed.
func TestTruncationEveryLength(t *testing.T) {
	payload := []byte("truncate me at every length")
	const key = 1234
	c := openTemp(t, Config{})
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	entrySize := int64(overhead + len(payload))
	for n := int64(1); n <= entrySize; n++ {
		if err := checkpoint.TruncateTail(c.EntryPath(key), n); err != nil {
			t.Fatalf("truncate %d: %v", n, err)
		}
		got, ok, err := c.Get(key)
		if err != nil {
			t.Fatalf("truncate %d: Get error %v", n, err)
		}
		if ok {
			t.Fatalf("truncate %d: torn entry served: %q", n, got)
		}
		if err := c.Put(key, payload); err != nil {
			t.Fatalf("truncate %d: recompute: %v", n, err)
		}
	}
}

// TestCrashAtEveryByteLeavesOldOrNothing injects a crash at every byte
// offset of the wire image and asserts the atomicity contract: after
// "reboot" (Open on the same dir) the crashed key misses cleanly, every
// pre-existing entry still serves its exact prior bytes, and no temp
// residue survives the reboot sweep.
func TestCrashAtEveryByteLeavesOldOrNothing(t *testing.T) {
	prior := []byte("the entry that was already durable")
	payload := []byte("crash-safety payload")
	wireLen := int64(overhead + len(payload))
	const priorKey, crashKey = 99, 100
	for off := int64(0); off <= wireLen; off++ {
		dir := t.TempDir()
		faults := checkpoint.NewFaults(off)
		c, err := Open(Config{Dir: dir, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(priorKey, prior); err != nil {
			t.Fatal(err)
		}
		faults.CrashNextWriteAfter(off)
		if err := c.Put(crashKey, payload); !errors.Is(err, checkpoint.ErrCrashed) {
			t.Fatalf("off %d: Put error = %v, want ErrCrashed", off, err)
		}
		// Reboot: no Close — the process died.
		c2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok, _ := c2.Get(crashKey); ok {
			t.Fatalf("off %d: torn write visible after reboot: %q", off, got)
		}
		got, ok, err := c2.Get(priorKey)
		if err != nil || !ok || !bytes.Equal(got, prior) {
			t.Fatalf("off %d: prior entry damaged by crashed write: ok=%v err=%v", off, ok, err)
		}
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("off %d: temp file %s survived reboot sweep", off, e.Name())
			}
		}
		c2.Close()
	}
}

// TestTransientErrorsRetried proves the bounded-backoff loop: a write plan
// that fails every other attempt still commits, and the retry counter moves.
func TestTransientErrorsRetried(t *testing.T) {
	faults := checkpoint.NewFaults(1)
	faults.WriteErrEvery = 2 // attempts 2, 4, ... fail
	c := openTemp(t, Config{Faults: faults})
	for key := uint64(1); key <= 8; key++ {
		if err := c.Put(key, []byte{byte(key)}); err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded despite injected transient failures")
	}
}

// TestRetryBudgetExhausted: a permanently failing write surfaces its error
// after exactly maxRetries retries rather than looping forever.
func TestRetryBudgetExhausted(t *testing.T) {
	faults := checkpoint.NewFaults(1)
	faults.WriteErrEvery = 1 // every attempt fails
	c := openTemp(t, Config{Faults: faults})
	start := time.Now()
	err := c.Put(5, []byte("never lands"))
	if err == nil {
		t.Fatal("Put must fail once the retry budget is exhausted")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("retry loop took %v — not bounded", d)
	}
	if st := c.Stats(); st.Retries != maxRetries {
		t.Fatalf("Retries = %d, want %d", st.Retries, maxRetries)
	}
	if _, ok, _ := c.Get(5); ok {
		t.Fatal("failed Put must not leave a visible entry")
	}
}

// TestShortWriteContained: a torn write (half the bytes, then failure) must
// never become visible under the live name, even across retries.
func TestShortWriteContained(t *testing.T) {
	faults := checkpoint.NewFaults(7)
	faults.ShortWriteEvery = 2
	c := openTemp(t, Config{Faults: faults})
	payload := bytes.Repeat([]byte("abcdefgh"), 64)
	for key := uint64(1); key <= 16; key++ {
		if err := c.Put(key, payload); err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		got, ok, err := c.Get(key)
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("key %d: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestSilentCorruptionNeverServed runs a Put/Get workload under a plan that
// flips bits and truncates tails of committed entries, and asserts reads
// only ever return the exact canonical bytes or a miss.
func TestSilentCorruptionNeverServed(t *testing.T) {
	faults := checkpoint.NewFaults(3)
	faults.FlipBitEvery = 2
	faults.TruncateEvery = 3
	c := openTemp(t, Config{Faults: faults})
	canonical := func(key uint64) []byte {
		return bytes.Repeat([]byte{byte(key), byte(key >> 8)}, 128)
	}
	served := 0
	for round := 0; round < 20; round++ {
		for key := uint64(1); key <= 8; key++ {
			want := canonical(key)
			got, ok, err := c.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d key %d: served wrong bytes", round, key)
				}
				served++
			} else if err := c.Put(key, want); err != nil {
				t.Fatal(err)
			}
		}
	}
	flips, truncs := faults.Corruptions()
	if flips == 0 || truncs == 0 {
		t.Fatalf("fault plan idle: flips=%d truncs=%d", flips, truncs)
	}
	if served == 0 {
		t.Fatal("no warm hits at all — harness broken")
	}
	if st := c.Stats(); st.CorruptDropped == 0 {
		t.Fatal("no corruption detected despite injected damage")
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".res-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTemp(t, Config{Dir: dir})
	if st := c.Stats(); st.TempSwept != 1 {
		t.Fatalf("TempSwept = %d, want 1", st.TempSwept)
	}
	if _, err := os.Stat(filepath.Join(dir, ".res-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp residue not removed on Open")
	}
}

func TestForeignAndMisnamedFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// A file named for key 5 but containing key 6's frame must miss.
	wire := encode(6, []byte("payload for six"))
	if err := os.WriteFile(filepath.Join(dir, "res-0000000000000005.teco"), wire, 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTemp(t, Config{Dir: dir})
	if _, ok, err := c.Get(5); ok || err != nil {
		t.Fatalf("cross-named entry served: ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
}
