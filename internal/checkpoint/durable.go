package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// This file is the one durable-write primitive behind both persisted
// artefacts — recovery snapshots (Store) and the sweep daemon's cached
// results (internal/diskcache). Either artefact promises that a crash or a flipped bit costs a recompute,
// never a wrong answer; that promise rests on WriteAtomic leaving the old
// file or the complete new one under a live name, on SweepTemps clearing
// what a dead writer left behind, and on the readers' CRCs.

// The primitive's test seams. The rename-then-dir-fsync ordering and the
// failure of either step are invisible on a healthy filesystem; only this
// package's tests reassign them.
var (
	renameFile = os.Rename
	syncDir    = SyncDir
)

// WriteAtomic durably publishes wire under path: write a fresh temp file
// named tmpPrefix*.tmp beside path, fsync it, rename it into place, fsync
// the directory. The file fsync must precede the rename (a published name
// pointing at unflushed bytes is the torn state this exists to prevent),
// and the directory fsync must follow it (the rename lives in directory
// metadata, which the file fsync does not cover). A failure removes the
// temp file, except an injected crash, which leaves it for SweepTemps as
// kill -9 would. A failed directory fsync is reported although the file
// is visible: its durability is unknown, so the caller must not count on it.
//
// faults, when non-nil, routes the write step through a fault plan and
// damages the committed file as the plan says.
func WriteAtomic(path, tmpPrefix string, wire []byte, faults *Faults) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tmpPrefix+"*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = faults.write(f, wire)
	if errors.Is(err, ErrCrashed) {
		f.Close()
		return err
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = renameFile(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	faults.afterCommit(path)
	return nil
}

// SweepTemps removes dir's tmpPrefix*.tmp files — left by writers that
// died between CreateTemp and rename, so no live name ever pointed at them
// — and returns how many it removed.
func SweepTemps(dir, tmpPrefix string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	swept := 0
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) && strings.HasSuffix(name, ".tmp") &&
			os.Remove(filepath.Join(dir, name)) == nil {
			swept++
		}
	}
	return swept, nil
}

// SyncDir fsyncs a directory so the renames and removals in it survive
// power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
