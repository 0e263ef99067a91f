// Package diskcache is a content-addressed, crash-safe on-disk result
// cache: the persistence layer behind the tecosimd sweep service. Every
// entry is keyed by a 64-bit config fingerprint (the same FNV-over-%+v
// scheme as realtrain's configTag and the checkpoint ConfigTag), stored in
// its own file whose wire image is CRC-16 framed exactly like a checkpoint
// section, and written with the full crash-durable sequence — temp file,
// fsync, rename into place, fsync of the parent directory — so a crash at
// any byte leaves either the old entry or no entry, never a torn one.
//
// Reads fail closed: any framing violation, bit flip or truncated tail is
// detected by the CRC, the damaged file is removed, and the lookup reports
// a miss so the caller transparently recomputes. Because entries are
// content-addressed (a key fully determines its payload), a recompute
// rewrites the identical bytes — corruption can cost a recompute, never a
// wrong answer. The chaos harness in internal/server proves both
// properties under kill -9 and injected media faults.
//
// The durable write, the temp sweep on Open and the fault plan are the
// ones checkpoint.Store uses: checkpoint.WriteAtomic, checkpoint.SweepTemps
// and checkpoint.Faults. Transient I/O errors are retried a fixed number of
// times with exponential backoff plus jitter; injected crashes
// (Faults.CrashNextWriteAfter, the in-process stand-in for kill -9) are not
// retried — the "process" is dead.
package diskcache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teco/internal/checkpoint"
	"teco/internal/cxl"
)

// Format constants. Version is bumped on any wire-image change; decoders
// reject versions they do not understand rather than guessing.
const (
	// Magic opens every entry file.
	Magic = "TECORSLT"
	// Version is the current entry format version.
	Version = 1
	// headerLen is magic + version(u16) + key(u64) + payload length(u32).
	headerLen = len(Magic) + 2 + 8 + 4
	// overhead is everything around the payload: header + trailing CRC-16.
	overhead = headerLen + 2
)

// ErrCorrupt reports an entry whose framing or CRC check failed. Get never
// returns it to callers — the entry is dropped and the lookup misses — but
// decode surfaces it for the corruption tests.
var ErrCorrupt = errors.New("diskcache: corrupt entry")

// The retry schedule for transient entry I/O failures: up to maxRetries
// retries, attempt k sleeping retryBase<<k plus up to 50% jitter drawn
// from a stream seeded with 0.
const (
	maxRetries = 4
	retryBase  = time.Millisecond
)

// tempPrefix prefixes entry temp files, the ones Open sweeps.
const tempPrefix = ".res-"

// Config parameterizes Open.
type Config struct {
	// Dir is the cache directory, created if needed.
	Dir string
	// MaxBytes bounds the cache's on-disk footprint (entry files, framing
	// included). When a Put would push past it, least-recently-used entries
	// are evicted first; a payload too large to ever fit is not stored at
	// all. 0 means unbounded.
	MaxBytes int64
	// Faults optionally injects I/O failures — the chaos harness's handle
	// on the cache. Nil runs clean.
	Faults *checkpoint.Faults
}

// Stats are the cache's cumulative counters, all monotone.
type Stats struct {
	// Hits and Misses count Get outcomes; a corrupt entry counts as a miss.
	Hits, Misses int64
	// Puts counts durably completed writes; PutNoops counts Puts that found
	// the entry already present (content-addressed entries are immutable,
	// so rewriting identical bytes is skipped).
	Puts, PutNoops int64
	// CorruptDropped counts entries whose CRC/framing check failed on Get;
	// each was removed and reported as a miss, never served.
	CorruptDropped int64
	// Retries counts transient I/O attempts that were retried.
	Retries int64
	// TempSwept counts leftover temp files removed by Open — the residue of
	// crashes mid-write.
	TempSwept int64
	// Evictions and EvictedBytes count entries (and their on-disk bytes)
	// removed to respect Config.MaxBytes; OversizePuts counts payloads never
	// stored because they could not fit even in an empty cache.
	Evictions, EvictedBytes, OversizePuts int64
	// SizeBytes is the current on-disk footprint of all live entries — the
	// one gauge among these counters.
	SizeBytes int64
}

// Cache is a handle on one cache directory. It is safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64
	faults   *checkpoint.Faults

	jitterMu sync.Mutex
	jitter   *rand.Rand

	hits, misses, puts, putNoops atomic.Int64
	corrupt, retries             atomic.Int64
	evictions, evictedBytes      atomic.Int64
	oversize                     atomic.Int64
	tempSwept                    int64

	indexMu   sync.Mutex
	index     map[uint64]*entry // keys believed present (advisory)
	lru       *list.List        // front = most recently used; values are uint64 keys
	sizeBytes int64             // on-disk bytes of all indexed entries
}

// entry is the index's per-key record: the entry file's size and its slot
// in the recency list.
type entry struct {
	size int64
	elem *list.Element
}

// Open opens (creating if needed) a cache directory, sweeps temp files left
// by crashed writers, and builds the in-memory key index from the directory
// listing. There is deliberately no separate index file: the directory is
// the index, so there is nothing extra to tear in a crash, and recency is
// rebuilt from file modification times (oldest = least recently used).
// Entries are validated lazily — Get CRC-checks every byte it serves. A
// directory over Config.MaxBytes (the bound shrank, or a crash landed
// between an eviction and its write) is trimmed back under it here.
func Open(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("diskcache: empty cache directory")
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("diskcache: negative size bound %d", cfg.MaxBytes)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: create dir: %w", err)
	}
	swept, err := checkpoint.SweepTemps(cfg.Dir, tempPrefix)
	if err != nil {
		return nil, fmt.Errorf("diskcache: sweep dir: %w", err)
	}
	c := &Cache{
		dir:       cfg.Dir,
		maxBytes:  cfg.MaxBytes,
		faults:    cfg.Faults,
		jitter:    rand.New(rand.NewSource(0)),
		tempSwept: int64(swept),
		index:     make(map[uint64]*entry),
		lru:       list.New(),
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: scan dir: %w", err)
	}
	type found struct {
		key   uint64
		size  int64
		mtime time.Time
	}
	var live []found
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "res-") || !strings.HasSuffix(name, ".teco") {
			continue
		}
		key, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "res-"), ".teco"), 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction; not indexed
		}
		live = append(live, found{key, info.Size(), info.ModTime()})
	}
	// Oldest first, name as the tiebreak, so inserting in order leaves the
	// newest entry at the recency front deterministically.
	sort.Slice(live, func(i, j int) bool {
		if !live[i].mtime.Equal(live[j].mtime) {
			return live[i].mtime.Before(live[j].mtime)
		}
		return live[i].key < live[j].key
	})
	for _, f := range live {
		c.index[f.key] = &entry{size: f.size, elem: c.lru.PushFront(f.key)}
		c.sizeBytes += f.size
	}
	if err := c.evictFor(0); err != nil {
		return nil, fmt.Errorf("diskcache: trim to size bound: %w", err)
	}
	return c, nil
}

// Len returns the number of keys believed present.
func (c *Cache) Len() int {
	c.indexMu.Lock()
	defer c.indexMu.Unlock()
	return len(c.index)
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.indexMu.Lock()
	size := c.sizeBytes
	c.indexMu.Unlock()
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Puts:           c.puts.Load(),
		PutNoops:       c.putNoops.Load(),
		CorruptDropped: c.corrupt.Load(),
		Retries:        c.retries.Load(),
		TempSwept:      c.tempSwept,
		Evictions:      c.evictions.Load(),
		EvictedBytes:   c.evictedBytes.Load(),
		OversizePuts:   c.oversize.Load(),
		SizeBytes:      size,
	}
}

// EntryPath returns the file a key lives in — the handle the chaos harness
// hands to checkpoint.FlipBit / checkpoint.TruncateTail.
func (c *Cache) EntryPath(key uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("res-%016x.teco", key))
}

// Get returns the payload stored under key. A missing entry is (nil, false,
// nil). A corrupt entry — flipped bit, truncated tail, torn frame — is
// detected by CRC, removed, counted in Stats.CorruptDropped, and reported
// as a miss so the caller recomputes; it is never served.
func (c *Cache) Get(key uint64) ([]byte, bool, error) {
	path := c.EntryPath(key)
	var buf []byte
	err := c.withRetry(func() error {
		var err error
		buf, err = c.faults.ReadFile(path)
		return err
	})
	if err != nil {
		if os.IsNotExist(err) {
			c.misses.Add(1)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("diskcache: get %016x: %w", key, err)
	}
	payload, err := decode(buf, key)
	if err != nil {
		// Fail closed: drop the damaged file so the next Put rewrites it,
		// and report a miss. The payload bytes never leave this function.
		os.Remove(path)
		c.indexMu.Lock()
		c.dropLocked(key)
		c.indexMu.Unlock()
		c.corrupt.Add(1)
		c.misses.Add(1)
		return nil, false, nil
	}
	c.indexMu.Lock()
	if e, ok := c.index[key]; ok {
		c.lru.MoveToFront(e.elem)
	}
	c.indexMu.Unlock()
	c.hits.Add(1)
	return payload, true, nil
}

// Put durably stores payload under key with checkpoint.WriteAtomic. An
// entry that already exists and verifies is left untouched (the cache is
// content-addressed — equal key means equal bytes). Transient I/O errors
// are retried with backoff; an injected crash aborts immediately, leaving
// at most a temp file that the next Open sweeps.
func (c *Cache) Put(key uint64, payload []byte) error {
	if existing, ok, _ := c.Get(key); ok {
		// Get already CRC-verified the entry. Equal keys must carry equal
		// bytes; a mismatch means the keying upstream is broken, which must
		// surface loudly rather than silently serve either version.
		if string(existing) != string(payload) {
			return fmt.Errorf("diskcache: put %016x: existing entry differs from new payload (non-canonical key derivation?)", key)
		}
		c.putNoops.Add(1)
		return nil
	}
	wire := encode(key, payload)
	if c.maxBytes > 0 && int64(len(wire)) > c.maxBytes {
		// Storing it would evict everything and still blow the bound; the
		// caller simply recomputes on every lookup.
		c.oversize.Add(1)
		return nil
	}
	// Make room first: evictions are removed and made durable before the
	// new entry's rename, so a crash at any point leaves the directory
	// within the bound (modulo the entry being written, which the next
	// Open's trim covers).
	if err := c.evictFor(int64(len(wire))); err != nil {
		return fmt.Errorf("diskcache: put %016x: evict: %w", key, err)
	}
	err := c.withRetry(func() error {
		return checkpoint.WriteAtomic(c.EntryPath(key), tempPrefix, wire, c.faults)
	})
	if err != nil {
		return fmt.Errorf("diskcache: put %016x: %w", key, err)
	}
	c.indexMu.Lock()
	if e, ok := c.index[key]; ok {
		// Raced with a concurrent Put of the same key: keep one record.
		c.sizeBytes += int64(len(wire)) - e.size
		e.size = int64(len(wire))
		c.lru.MoveToFront(e.elem)
	} else {
		c.index[key] = &entry{size: int64(len(wire)), elem: c.lru.PushFront(key)}
		c.sizeBytes += int64(len(wire))
	}
	c.indexMu.Unlock()
	// Concurrent Puts may each have seen room for their own entry; a final
	// trim restores the bound (the fresh entry sits at the recency front,
	// so it is the last possible victim).
	if err := c.evictFor(0); err != nil {
		return fmt.Errorf("diskcache: put %016x: trim: %w", key, err)
	}
	c.puts.Add(1)
	return nil
}

// Close flushes the directory metadata (a final fsync, so every rename is
// durable before the process exits) and detaches the handle. The in-memory
// index needs no persisting — it is rebuilt from the directory on Open.
func (c *Cache) Close() error {
	return checkpoint.SyncDir(c.dir)
}

// dropLocked removes key from the index and recency list. indexMu held.
func (c *Cache) dropLocked(key uint64) {
	if e, ok := c.index[key]; ok {
		c.lru.Remove(e.elem)
		c.sizeBytes -= e.size
		delete(c.index, key)
	}
}

// evictFor removes least-recently-used entries until `need` more on-disk
// bytes fit under the size bound, then fsyncs the directory so every delete
// is durable before the caller writes. The crash-safe ordering is
// remove-then-sync-then-write: each entry file is individually atomic, so a
// crash anywhere leaves a valid subset of entries, and the deletes land on
// disk before the bytes they made room for.
func (c *Cache) evictFor(need int64) error {
	if c.maxBytes == 0 {
		return nil
	}
	c.indexMu.Lock()
	var victims []uint64
	var freed int64
	for c.sizeBytes+need > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		key := back.Value.(uint64)
		freed += c.index[key].size
		victims = append(victims, key)
		// Unlink now (dropLocked shrinks sizeBytes) so concurrent Puts
		// don't pick the same victim; the file itself is removed after the
		// lock drops.
		c.dropLocked(key)
	}
	c.indexMu.Unlock()
	if len(victims) == 0 {
		return nil
	}
	for _, key := range victims {
		if err := os.Remove(c.EntryPath(key)); err != nil && !os.IsNotExist(err) {
			return err
		}
		c.evictions.Add(1)
	}
	c.evictedBytes.Add(freed)
	return checkpoint.SyncDir(c.dir)
}

// withRetry runs op, retrying transient failures with exponential backoff
// plus jitter. Not-exist errors (a plain miss) and injected crashes
// (the process is "dead") pass straight through.
func (c *Cache) withRetry(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || os.IsNotExist(err) || errors.Is(err, checkpoint.ErrCrashed) {
			return err
		}
		if attempt >= maxRetries {
			return err
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// backoff returns the sleep before retry `attempt`: retryBase << attempt,
// plus up to 50% jitter so synchronized retry storms decorrelate.
func (c *Cache) backoff(attempt int) time.Duration {
	d := retryBase << uint(attempt)
	c.jitterMu.Lock()
	j := time.Duration(c.jitter.Int63n(int64(d)/2 + 1))
	c.jitterMu.Unlock()
	return d + j
}

// encode frames a payload: magic, version, key, payload length, payload,
// then a CRC-16 over everything before it — the same CRC the CXL link and
// the checkpoint sections use, so a flip anywhere in the file fails closed.
func encode(key uint64, payload []byte) []byte {
	out := make([]byte, 0, overhead+len(payload))
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, key)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	crc := cxl.UpdateCRC16(0xFFFF, out)
	return binary.LittleEndian.AppendUint16(out, crc)
}

// decode verifies an entry wire image against the key it was looked up
// under and returns the payload. Every violation wraps ErrCorrupt.
func decode(buf []byte, key uint64) ([]byte, error) {
	if len(buf) < overhead {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame", ErrCorrupt, len(buf))
	}
	if string(buf[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if k := binary.LittleEndian.Uint64(buf[len(Magic)+2:]); k != key {
		return nil, fmt.Errorf("%w: entry key %016x under name for %016x", ErrCorrupt, k, key)
	}
	plen := int(binary.LittleEndian.Uint32(buf[len(Magic)+10:]))
	if len(buf) != overhead+plen {
		return nil, fmt.Errorf("%w: %d bytes for %d-byte payload", ErrCorrupt, len(buf), plen)
	}
	crc := cxl.UpdateCRC16(0xFFFF, buf[:headerLen+plen])
	if crc != binary.LittleEndian.Uint16(buf[headerLen+plen:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return buf[headerLen : headerLen+plen], nil
}
