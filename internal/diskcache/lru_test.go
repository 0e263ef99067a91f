package diskcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// payloadFor derives a deterministic, key-dependent payload so any served
// entry can be verified against the key it was requested under.
func payloadFor(key uint64, n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(key)))
	for i := range p {
		p[i] = byte(rng.Intn(256))
	}
	return p
}

// The size bound holds and eviction is least-recently-used: touching an old
// entry saves it, the untouched one goes first.
func TestLRUEvictionOrder(t *testing.T) {
	const payload = 1000
	wire := int64(payload + overhead)
	c := openTemp(t, Config{MaxBytes: 3 * wire})
	for key := uint64(1); key <= 3; key++ {
		if err := c.Put(key, payloadFor(key, payload)); err != nil {
			t.Fatal(err)
		}
	}
	// Recency now 3 > 2 > 1. Touch 1 so 2 becomes the LRU victim.
	if _, ok, _ := c.Get(1); !ok {
		t.Fatal("entry 1 missing before any eviction")
	}
	if err := c.Put(4, payloadFor(4, payload)); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[uint64]bool{1: true, 2: false, 3: true, 4: true} {
		if _, ok, _ := c.Get(key); ok != want {
			t.Fatalf("after eviction: key %d present=%v, want %v", key, ok, want)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != wire {
		t.Fatalf("eviction stats: %+v", st)
	}
	if st.SizeBytes != 3*wire {
		t.Fatalf("size %d, want %d", st.SizeBytes, 3*wire)
	}
	if _, err := os.Stat(c.EntryPath(2)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry file still on disk: %v", err)
	}
}

// A payload that cannot fit even in an empty cache is never stored and
// never evicts anything to try.
func TestLRUOversizePayloadSkipped(t *testing.T) {
	c := openTemp(t, Config{MaxBytes: 256})
	if err := c.Put(1, payloadFor(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, payloadFor(2, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(2); ok {
		t.Fatal("oversize payload was stored")
	}
	if _, ok, _ := c.Get(1); !ok {
		t.Fatal("oversize Put evicted an innocent entry")
	}
	st := c.Stats()
	if st.OversizePuts != 1 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Reopening rebuilds sizes and recency from the directory: mtime order
// decides the victim, and a directory over a (newly shrunk) bound is
// trimmed back under it by Open itself.
func TestLRUReopenRebuildsRecency(t *testing.T) {
	dir := t.TempDir()
	const payload = 1000
	wire := int64(payload + overhead)
	c := openTemp(t, Config{Dir: dir, MaxBytes: 4 * wire})
	for key := uint64(1); key <= 3; key++ {
		if err := c.Put(key, payloadFor(key, payload)); err != nil {
			t.Fatal(err)
		}
		// Mtime granularity on some filesystems is coarse; space the
		// writes out so the recency rebuild sees a strict order.
		mt := time.Now().Add(time.Duration(key) * time.Hour)
		if err := os.Chtimes(c.EntryPath(key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	re := openTemp(t, Config{Dir: dir, MaxBytes: 3 * wire})
	if st := re.Stats(); st.SizeBytes != 3*wire || st.Evictions != 0 {
		t.Fatalf("reopen stats: %+v", st)
	}
	if err := re.Put(4, payloadFor(4, payload)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := re.Get(1); ok {
		t.Fatal("oldest entry survived the eviction")
	}
	if _, ok, _ := re.Get(3); !ok {
		t.Fatal("newest entry was evicted")
	}

	// Shrink the bound below the current footprint: Open trims.
	re.Close()
	small := openTemp(t, Config{Dir: dir, MaxBytes: wire})
	if st := small.Stats(); st.SizeBytes > wire || st.Evictions < 2 {
		t.Fatalf("open did not trim to the bound: %+v", st)
	}
}

func TestLRUNegativeBoundRejected(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir(), MaxBytes: -1}); err == nil {
		t.Fatal("negative MaxBytes accepted")
	}
}

// The churn proof: concurrent writers and readers hammer a cache bounded to
// a fraction of the working set. Every Get must return either a miss or the
// exact payload for its key — never a wrong, partial, or torn entry — and
// the on-disk footprint must respect the bound once the dust settles.
func TestLRUChurnNeverServesWrongEntry(t *testing.T) {
	const (
		keys    = 64
		payload = 512
		writers = 4
		readers = 4
		rounds  = 200
	)
	wire := int64(payload + overhead)
	dir := t.TempDir()
	c := openTemp(t, Config{Dir: dir, MaxBytes: keys / 4 * wire})

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				key := uint64(rng.Intn(keys) + 1)
				if err := c.Put(key, payloadFor(key, payload)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < rounds; i++ {
				key := uint64(rng.Intn(keys) + 1)
				got, ok, err := c.Get(key)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if ok && !bytes.Equal(got, payloadFor(key, payload)) {
					errs <- fmt.Errorf("reader %d: key %d served wrong bytes", r, key)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.SizeBytes > keys/4*wire {
		t.Fatalf("size %d exceeds bound %d: %+v", st.SizeBytes, keys/4*wire, st)
	}
	if st.Evictions == 0 {
		t.Fatalf("churn at 4x the bound never evicted: %+v", st)
	}
	if st.CorruptDropped != 0 {
		t.Fatalf("churn corrupted entries: %+v", st)
	}
	// The index's idea of the footprint matches the directory's.
	var onDisk int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if onDisk != st.SizeBytes {
		t.Fatalf("on-disk %d bytes, index says %d", onDisk, st.SizeBytes)
	}
}
