package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// These tests pin the crash-durability contract of WriteAtomic through
// Store.Save: the write step goes through a Faults plan set on the store,
// the rename and the directory fsync through the primitive's two seams.

// smallSnapshot is a valid snapshot of a few hundred bytes, small enough
// to crash a write at every byte offset of it.
func smallSnapshot(step int64) *Snapshot {
	return &Snapshot{Step: step, ActivatedAt: -1, Params: []float32{1}, Compute: []float32{2},
		AdamM: []float32{3}, AdamV: []float32{4}, PrevParams: []float32{5}, PrevGrads: []float32{6}}
}

func swapSeams(t *testing.T, rename func(string, string) error, dirSync func(string) error) {
	t.Helper()
	origRename, origSync := renameFile, syncDir
	if rename != nil {
		renameFile = rename
	}
	if dirSync != nil {
		syncDir = dirSync
	}
	t.Cleanup(func() { renameFile, syncDir = origRename, origSync })
}

func countTemps(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// TestSaveDurableOrdering records the sequence: the temp file is written
// in full through the fault plan before the rename publishes it, and the
// store directory is fsynced after the rename — the order that makes the
// rename itself survive power loss. The temp file's own fsync is not
// observable through the two seams, so this test does not pin it.
func TestSaveDurableOrdering(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.faults = NewFaults(1)
	snap := testSnapshot(1)
	wire := snap.Encode()
	var seq []string
	swapSeams(t,
		func(oldpath, newpath string) error {
			if buf, err := os.ReadFile(oldpath); err == nil && bytes.Equal(buf, wire) && st.faults.writes == 1 {
				seq = append(seq, "write(temp)")
			}
			seq = append(seq, "rename")
			return os.Rename(oldpath, newpath)
		},
		func(d string) error {
			if d != dir {
				t.Errorf("dir fsync on %q, want the store dir %q", d, dir)
			}
			if _, err := os.Stat(st.path(snap.Step)); err == nil {
				seq = append(seq, "fsync(dir)")
			}
			return nil
		})
	if _, _, err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	want := "write(temp),rename,fsync(dir)"
	if got := strings.Join(seq, ","); got != want {
		t.Fatalf("durable-write order %q, want %q", got, want)
	}
}

// TestSaveFailureMatrix meets every failure of the primitive through
// Store.Save on a store that already holds a good snapshot: a short write,
// a transient error, a failed rename, a failed directory fsync, and a crash
// at every byte offset of a small snapshot. Each must fail the Save with
// its own error. Every failure but the crash removes its temp file at once;
// the crash leaves it for the next NewStore (the reboot) to sweep. After
// the reboot LoadLatest returns the good snapshot, except after the failed
// directory fsync: that rename landed, so the error is all that tells the
// caller not to advance its recovery line past a file that may evaporate.
func TestSaveFailureMatrix(t *testing.T) {
	good, next := smallSnapshot(10), smallSnapshot(60)
	injected := errors.New("injected I/O failure")
	fail := func(t *testing.T, dir string, arm func(*testing.T, *Store), want error, temps int, loaded int64) {
		t.Helper()
		st, err := NewStore(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Save(good); err != nil {
			t.Fatal(err)
		}
		st.faults = NewFaults(1)
		arm(t, st)
		if _, _, err := st.Save(next); !errors.Is(err, want) {
			t.Fatalf("Save error = %v, want %v", err, want)
		}
		if n := countTemps(t, dir); n != temps {
			t.Fatalf("%d temp files after the failed Save, want %d", n, temps)
		}
		if st, err = NewStore(dir, 3); err != nil {
			t.Fatal(err)
		}
		if n := countTemps(t, dir); n != 0 {
			t.Fatalf("%d temp files survived the reboot sweep", n)
		}
		s, info, err := st.LoadLatest()
		if err != nil {
			t.Fatal(err)
		}
		if s.Step != loaded || len(info.Skipped) != 0 {
			t.Fatalf("loaded step %d (skipped %v), want %d", s.Step, info.Skipped, loaded)
		}
	}
	for _, r := range []struct {
		name   string
		arm    func(*testing.T, *Store)
		want   error
		loaded int64
	}{
		{"short-write", func(_ *testing.T, st *Store) { st.faults.ShortWriteEvery = 1 }, errInjected, good.Step},
		{"transient", func(_ *testing.T, st *Store) { st.faults.WriteErrEvery = 1 }, errInjected, good.Step},
		{"rename", func(t *testing.T, _ *Store) { swapSeams(t, func(string, string) error { return injected }, nil) }, injected, good.Step},
		{"dir-fsync", func(t *testing.T, _ *Store) { swapSeams(t, nil, func(string) error { return injected }) }, injected, next.Step},
	} {
		t.Run(r.name, func(t *testing.T) { fail(t, t.TempDir(), r.arm, r.want, 0, r.loaded) })
	}
	t.Run("crash-every-byte", func(t *testing.T) {
		dir := t.TempDir()
		size := int64(len(next.Encode()))
		for off := int64(0); off <= size; off++ {
			t.Run(fmt.Sprint(off), func(t *testing.T) {
				fail(t, dir, func(_ *testing.T, st *Store) { st.faults.CrashNextWriteAfter(off) }, ErrCrashed, 1, good.Step)
			})
		}
	})
}
