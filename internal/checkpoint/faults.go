package checkpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// This file is the crash-injection harness shared by Store and
// internal/diskcache: the Faults plan WriteAtomic writes through, and the
// file-damage toolkit (FlipBit, TruncateTail) that proves a torn write or
// a silent media bit flip is always caught by CRC and never loaded.

// ErrCrashed is the injected kill -9: a write stopped at an exact byte
// with no cleanup. Callers never retry it — the simulated process is
// dead — and the harness "reboots" by reopening the directory.
var ErrCrashed = errors.New("checkpoint: injected crash mid-write")

// errInjected marks a transient injected failure, which callers may retry.
var errInjected = errors.New("checkpoint: injected transient I/O error")

// Faults is a deterministic, seeded fault plan for WriteAtomic and the
// readers that share it. Four failure families hit the write step — slow
// I/O, transient errors, short (torn) writes, and a crash at an exact byte
// offset — and committed files suffer media damage (bit flips and tail
// truncation via FlipBit/TruncateTail). Every Nth-style knob counts its
// own event stream; zero disables that family. Safe for concurrent use; a
// nil plan runs clean.
type Faults struct {
	mu  sync.Mutex
	rng *rand.Rand

	// Delay sleeps before every write and ReadFile — slow media.
	Delay time.Duration
	// WriteErrEvery fails every Nth write attempt with a transient error.
	WriteErrEvery int
	// ShortWriteEvery writes a random prefix of every Nth write attempt and
	// then fails it — a torn write the atomic rename must contain.
	ShortWriteEvery int
	// FlipBitEvery flips one random bit of every Nth committed file —
	// silent media corruption that only a CRC can catch.
	FlipBitEvery int
	// TruncateEvery removes a random tail of every Nth committed file.
	TruncateEvery int

	writes, commits int
	crashAfter      int64 // -1: disarmed; else stop the next write at this byte
	crashes         int
	flips, truncs   int
}

// NewFaults returns a fault plan with every family disabled; the caller
// arms the knobs it wants. The seed drives flip/truncate positions and
// short-write lengths.
func NewFaults(seed int64) *Faults {
	return &Faults{rng: rand.New(rand.NewSource(seed)), crashAfter: -1}
}

// CrashNextWriteAfter arms a one-shot crash: the next write stops after
// exactly n bytes and returns ErrCrashed, leaving the temp file in place
// exactly as kill -9 would.
func (f *Faults) CrashNextWriteAfter(n int64) {
	f.mu.Lock()
	f.crashAfter = n
	f.mu.Unlock()
}

// Crashes reports how many injected crashes fired.
func (f *Faults) Crashes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashes
}

// Corruptions reports committed-file damage injected so far.
func (f *Faults) Corruptions() (flips, truncations int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flips, f.truncs
}

// ReadFile reads a whole file after the plan's slow-I/O delay.
func (f *Faults) ReadFile(path string) ([]byte, error) {
	if f != nil {
		f.mu.Lock()
		delay := f.Delay
		f.mu.Unlock()
		time.Sleep(delay)
	}
	return os.ReadFile(path)
}

// write pushes wire into file through the plan: full write, short write,
// transient error, or crash at a byte offset.
func (f *Faults) write(file *os.File, wire []byte) error {
	if f == nil {
		_, err := file.Write(wire)
		return err
	}
	f.mu.Lock()
	if f.Delay > 0 {
		delay := f.Delay
		f.mu.Unlock()
		time.Sleep(delay)
		f.mu.Lock()
	}
	f.writes++
	if f.crashAfter >= 0 {
		n := min(f.crashAfter, int64(len(wire)))
		f.crashAfter = -1
		f.crashes++
		f.mu.Unlock()
		if n > 0 {
			file.Write(wire[:n]) // the bytes that made it out before death
			file.Sync()
		}
		return fmt.Errorf("%w (at byte %d of %d)", ErrCrashed, n, len(wire))
	}
	if f.WriteErrEvery > 0 && f.writes%f.WriteErrEvery == 0 {
		f.mu.Unlock()
		return fmt.Errorf("%w (write %s)", errInjected, file.Name())
	}
	if f.ShortWriteEvery > 0 && f.writes%f.ShortWriteEvery == 0 {
		cut := 1 + f.rng.Intn(len(wire))
		f.mu.Unlock()
		file.Write(wire[:cut])
		return fmt.Errorf("%w (short write: %d of %d bytes)", errInjected, cut, len(wire))
	}
	f.mu.Unlock()
	_, err := file.Write(wire)
	return err
}

// afterCommit damages every Nth durably committed file in place — the
// "disk rotted underneath us" case the reader's CRC must catch.
func (f *Faults) afterCommit(path string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commits++
	if f.FlipBitEvery > 0 && f.commits%f.FlipBitEvery == 0 {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			if FlipBit(path, f.rng.Int63n(fi.Size()*8)) == nil {
				f.flips++
			}
		}
	}
	if f.TruncateEvery > 0 && f.commits%f.TruncateEvery == 0 {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			if TruncateTail(path, 1+f.rng.Int63n(fi.Size())) == nil {
				f.truncs++
			}
		}
	}
}

// FlipBit flips one bit of a file in place. bit indexes from the start of
// the file (bit 0 is the LSB of byte 0).
func FlipBit(path string, bit int64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bit < 0 || bit >= int64(len(buf))*8 {
		return fmt.Errorf("checkpoint: bit %d outside file of %d bytes", bit, len(buf))
	}
	buf[bit/8] ^= 1 << (bit % 8)
	return os.WriteFile(path, buf, 0o644)
}

// TruncateTail removes the last n bytes of a file — a torn write from a
// crash mid-checkpoint on a filesystem without atomic rename.
func TruncateTail(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 || n > fi.Size() {
		return fmt.Errorf("checkpoint: truncate %d bytes from file of %d", n, fi.Size())
	}
	return os.Truncate(path, fi.Size()-n)
}
