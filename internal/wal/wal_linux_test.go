package wal

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"testing"
)

// TestSteadyStateAllocatesNothing pins the mechanism: after warm-up, 10⁴
// group commits and 50 checkpoints leave every file's inode, size and
// allocated blocks, and the directory listing, exactly as they were —
// checked after every round of commits and after every checkpoint. Nothing
// on the commit or checkpoint path creates, extends, truncates, renames or
// removes a file.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDomain(dir, 2, FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap := make([]byte, 16<<10)
	checkpoint := func() {
		if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, snap) }); err != nil {
			t.Fatal(err)
		}
	}
	rec := make([]byte, 92)
	commits := func(n int) {
		for i := 0; i < n; i++ {
			l := d.Worker(i % 2)
			l.Begin()
			for r := 0; r < 4; r++ {
				l.StageRecord(func(dst []byte) []byte { return append(dst, rec...) })
			}
			if err := l.Commit(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	commits(200)
	checkpoint()
	checkpoint()
	before := dirState(t, dir)
	for c := 0; c < 50; c++ {
		commits(200)
		if now := dirState(t, dir); now != before {
			t.Fatalf("round %d: files changed by commits:\nbefore %s\nnow    %s", c, before, now)
		}
		checkpoint()
		if now := dirState(t, dir); now != before {
			t.Fatalf("round %d: files changed by a checkpoint:\nbefore %s\nnow    %s", c, before, now)
		}
	}
}

// dirState lists every file in dir with its inode, size and allocated
// blocks.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		st := fi.Sys().(*syscall.Stat_t)
		out += fmt.Sprintf("%s:%d:%d:%d ", e.Name(), st.Ino, fi.Size(), st.Blocks)
	}
	return out
}
