package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// DefaultKeepLast is the retention depth when StoreConfig leaves it zero:
// the latest snapshot plus two fallbacks, so a snapshot corrupted on disk
// (or torn by a crash mid-rename on a non-atomic filesystem) still leaves
// recovery points.
const DefaultKeepLast = 3

// ErrNoSnapshot reports a store with no loadable snapshot — every file was
// missing or corrupt. Callers fall back to a cold start.
var ErrNoSnapshot = errors.New("checkpoint: no loadable snapshot")

// Store manages a directory of snapshot files named ckpt-<step>.teco.
// Save goes through WriteAtomic, so a crash — or power loss — at any point
// leaves either the previous snapshot set or the complete new file under
// the live name, never a torn one and never a rename that evaporates on
// reboot; NewStore sweeps the temp files such a crash leaves. Retention
// keeps the last K snapshots.
type Store struct {
	dir    string
	keep   int
	faults *Faults // nil outside this package's tests
}

// storeTemp prefixes Save's temp files, the ones NewStore sweeps.
const storeTemp = ".ckpt-"

// NewStore opens (creating if needed) a checkpoint directory and removes
// the temp files of saves that crashed. keep <= 0 selects DefaultKeepLast.
func NewStore(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty store directory")
	}
	if keep <= 0 {
		keep = DefaultKeepLast
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store: %w", err)
	}
	if _, err := SweepTemps(dir, storeTemp); err != nil {
		return nil, fmt.Errorf("checkpoint: sweep store: %w", err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

// path returns the snapshot filename for a step.
func (st *Store) path(step int64) string {
	return filepath.Join(st.dir, fmt.Sprintf("ckpt-%012d.teco", step))
}

// Save atomically and durably persists a snapshot (WriteAtomic) and
// prunes old files past the retention depth. It returns the final path and
// the encoded size. Any failure leaves the previous snapshot set untouched.
func (st *Store) Save(s *Snapshot) (string, int64, error) {
	wire := s.Encode()
	final := st.path(s.Step)
	if err := WriteAtomic(final, storeTemp, wire, st.faults); err != nil {
		return "", 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	st.prune()
	return final, int64(len(wire)), nil
}

// prune removes snapshots beyond the retention depth, oldest first. Errors
// are ignored: retention is best-effort housekeeping, never a reason to
// fail a checkpoint that is already durable.
func (st *Store) prune() {
	files, err := st.List()
	if err != nil || len(files) <= st.keep {
		return
	}
	for _, f := range files[:len(files)-st.keep] {
		os.Remove(f)
	}
}

// List returns the snapshot files in ascending step order (the name embeds
// the zero-padded step, so lexical order is step order).
func (st *Store) List() ([]string, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == ".teco" && len(name) > 10 && name[:5] == "ckpt-" {
			out = append(out, filepath.Join(st.dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// LoadInfo reports what a LoadLatest walk found.
type LoadInfo struct {
	// Path is the file the returned snapshot came from; Size is its
	// encoded length in bytes.
	Path string
	Size int64
	// Skipped lists newer snapshot files that were rejected as corrupt —
	// each was detected by CRC/framing and never partially loaded.
	Skipped []string
}

// LoadLatest returns the newest snapshot that decodes and CRC-verifies,
// skipping (and reporting) corrupt files. It returns ErrNoSnapshot when
// nothing is loadable, including when the directory does not exist yet.
func (st *Store) LoadLatest() (*Snapshot, LoadInfo, error) {
	var info LoadInfo
	files, err := st.List()
	if err != nil {
		return nil, info, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(files[i])
		if err != nil {
			info.Skipped = append(info.Skipped, files[i])
			continue
		}
		s, err := Decode(buf)
		if err != nil {
			info.Skipped = append(info.Skipped, files[i])
			continue
		}
		info.Path = files[i]
		info.Size = int64(len(buf))
		return s, info, nil
	}
	return nil, info, ErrNoSnapshot
}
