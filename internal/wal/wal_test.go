package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func appendRec(payload string) func([]byte) []byte {
	return func(dst []byte) []byte { return append(dst, payload...) }
}

// commitBatch stages the payloads as one sweep batch and group-commits.
func commitBatch(t *testing.T, l *WorkerLog, payloads ...string) {
	t.Helper()
	l.Begin()
	for _, p := range payloads {
		l.StageRecord(appendRec(p))
	}
	if err := l.Commit(true); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func recoverAll(t *testing.T, d *DomainLog) (ckpt []string, recs []string) {
	t.Helper()
	_, err := d.Recover(
		func(r io.Reader) error {
			for {
				p, err := ReadFrame(r)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				ckpt = append(ckpt, string(p))
			}
		},
		func(rec []byte) error {
			recs = append(recs, string(rec))
			return nil
		},
	)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return ckpt, recs
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
	}{{"none", FsyncNone}, {"batch", FsyncBatch}, {"always", FsyncAlways}} {
		got, err := ParseFsyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseFsyncMode("bogus"); err == nil {
		t.Fatal("ParseFsyncMode(bogus) succeeded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []string{"alpha", "", "gamma-gamma"} {
		if err := WriteFrame(&buf, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	var got []string
	for {
		p, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p))
	}
	if len(got) != 3 || got[0] != "alpha" || got[1] != "" || got[2] != "gamma-gamma" {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestReadFrameDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(b)); err != ErrTornFrame {
		t.Fatalf("corrupt payload: err = %v, want ErrTornFrame", err)
	}
	// A short header is torn, not EOF.
	if _, err := ReadFrame(bytes.NewReader(b[:3])); err != ErrTornFrame {
		t.Fatalf("short header: err = %v, want ErrTornFrame", err)
	}
}

func TestGroupCommitAndReplay(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 2, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitBatch(t, d.Worker(0), "a1", "a2")
	commitBatch(t, d.Worker(1), "b1")
	commitBatch(t, d.Worker(0), "a3")

	_, recs := recoverAll(t, d)
	// Replay merges the two worker segments in LSN (commit) order, not in
	// worker order: worker 1's batch committed between worker 0's two.
	want := []string{"a1", "a2", "b1", "a3"}
	if fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Fatalf("replayed %q, want %q", recs, want)
	}
	st := d.Stats()
	if st.Committed != 4 || st.Replayed != 4 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortDiscardsBatch(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Worker(0)
	commitBatch(t, l, "kept")
	l.Begin()
	l.StageRecord(appendRec("dropped"))
	l.Abort()
	_, recs := recoverAll(t, d)
	if len(recs) != 1 || recs[0] != "kept" {
		t.Fatalf("replayed %q, want [kept]", recs)
	}
}

func TestEmptyEncoderStagesNothing(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Worker(0)
	l.Begin()
	l.StageRecord(func(dst []byte) []byte { return dst }) // no payload
	l.StageRecord(appendRec("real"))
	if err := l.Commit(true); err != nil {
		t.Fatal(err)
	}
	_, recs := recoverAll(t, d)
	if len(recs) != 1 || recs[0] != "real" {
		t.Fatalf("replayed %q, want [real]", recs)
	}
	if d.Stats().Committed != 1 {
		t.Fatalf("committed = %d, want 1", d.Stats().Committed)
	}
}

func TestTornTailTruncatedAndAppendContinues(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDomain(dir, 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Worker(0)
	commitBatch(t, l, "good1", "good2")

	// Simulate a crash mid-append: at the segment's write offset, a frame
	// header promising more payload than follows.
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	if err := l.seg.put(append(hdr[:], "partial"...)); err != nil {
		t.Fatal(err)
	}

	_, recs := recoverAll(t, d)
	if fmt.Sprint(recs) != fmt.Sprint([]string{"good1", "good2"}) {
		t.Fatalf("replayed %q, want the committed prefix", recs)
	}

	// The torn bytes are gone: a post-recovery commit appends cleanly.
	commitBatch(t, l, "good3")
	_, recs = recoverAll(t, d)
	if fmt.Sprint(recs) != fmt.Sprint([]string{"good1", "good2", "good3"}) {
		t.Fatalf("replayed %q after re-append", recs)
	}
}

func TestCommitKillAndTearFaults(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	action := CommitNone
	d.SetCommitHook(func(worker int) int { return action })
	l := d.Worker(0)
	commitBatch(t, l, "before")

	crash := func(a int) (recovered any) {
		defer func() {
			recovered = recover()
			l.Abort() // the sweep's crash defer
		}()
		action = a
		l.Begin()
		l.StageRecord(appendRec("doomed-record"))
		_ = l.Commit(true)
		return nil
	}
	if crash(CommitKill) == nil {
		t.Fatal("kill hook did not panic")
	}
	if crash(CommitTear) == nil {
		t.Fatal("tear hook did not panic")
	}
	action = CommitNone

	_, recs := recoverAll(t, d)
	if fmt.Sprint(recs) != fmt.Sprint([]string{"before"}) {
		t.Fatalf("replayed %q, want only the pre-crash commit", recs)
	}

	// Suppressed faults (seal path) commit normally.
	action = CommitKill
	l.Begin()
	l.StageRecord(appendRec("sealed"))
	if err := l.Commit(false); err != nil {
		t.Fatal(err)
	}
	_, recs = recoverAll(t, d)
	if fmt.Sprint(recs) != fmt.Sprint([]string{"before", "sealed"}) {
		t.Fatalf("replayed %q, want fault suppressed on seal path", recs)
	}
}

// TestCheckpointTruncatesSegments checks that a checkpoint moves the replay
// horizon: no pre-checkpoint frame survives in any segment (its bytes read
// back as zeros, and a recovery right after the checkpoint replays nothing),
// while the files keep their preallocated size.
func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDomain(dir, 2, FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	commitBatch(t, d.Worker(0), "pre1")
	commitBatch(t, d.Worker(1), "pre2")
	written := make([]int64, 2)
	sizes := make([]int64, 2)
	for i := range sizes {
		written[i] = d.segs[i].high
		sizes[i] = fileSize(t, filepath.Join(dir, fmt.Sprintf("w%d.log", i)))
	}

	snapshot := func(w io.Writer) error { return WriteFrame(w, []byte("snapshot-state")) }
	if err := d.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("w%d.log", i))
		if got := fileSize(t, path); got != sizes[i] {
			t.Fatalf("segment %d size changed across the checkpoint: %d -> %d", i, sizes[i], got)
		}
		old := make([]byte, written[i])
		if _, err := d.segs[i].f.ReadAt(old, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(old, make([]byte, len(old))) {
			t.Fatalf("segment %d still holds pre-checkpoint bytes: %x", i, old)
		}
	}
	ckpt, recs := recoverAll(t, d)
	if len(ckpt) != 1 || ckpt[0] != "snapshot-state" || len(recs) != 0 {
		t.Fatalf("recovery right after the checkpoint: ckpt=%q recs=%q, want the snapshot and no records", ckpt, recs)
	}
	commitBatch(t, d.Worker(0), "post")

	ckpt, recs = recoverAll(t, d)
	if len(ckpt) != 1 || ckpt[0] != "snapshot-state" {
		t.Fatalf("checkpoint payloads %q", ckpt)
	}
	if fmt.Sprint(recs) != fmt.Sprint([]string{"post"}) {
		t.Fatalf("replayed %q, want only the post-checkpoint tail", recs)
	}
	if d.Stats().LastCheckpoint == 0 {
		t.Fatal("LastCheckpoint not stamped")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestOpenDomainResetsPriorState(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDomain(dir, 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	commitBatch(t, d.Worker(0), "old")
	if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, []byte("old-ckpt")) }); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, err := OpenDomain(dir, 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ckpt, recs := recoverAll(t, d2)
	if len(ckpt) != 0 || len(recs) != 0 {
		t.Fatalf("fresh open kept state: ckpt=%q recs=%q", ckpt, recs)
	}
}

// TestShortBatchAfterCheckpointReplaysAlone writes a long batch, checkpoints
// and then writes a shorter one over the start of the long one's bytes: the
// reset must have zeroed the long batch's tail, so only the short batch
// replays and nothing of the long one is left on disk past it.
func TestShortBatchAfterCheckpointReplaysAlone(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Worker(0)
	var long []string
	for i := 0; i < 64; i++ {
		long = append(long, fmt.Sprintf("long-record-%03d-%s", i, bytes.Repeat([]byte("x"), 40)))
	}
	commitBatch(t, l, long...)
	commitBatch(t, l, "long-tail")
	written := l.seg.high
	if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, []byte("base")) }); err != nil {
		t.Fatal(err)
	}
	commitBatch(t, l, "short")
	ckpt, recs := recoverAll(t, d)
	if fmt.Sprint(ckpt) != "[base]" || fmt.Sprint(recs) != "[short]" {
		t.Fatalf("ckpt=%q recs=%q, want [base] and only the short batch", ckpt, recs)
	}
	rest := make([]byte, written-l.seg.off)
	if _, err := l.seg.f.ReadAt(rest, l.seg.off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, make([]byte, len(rest))) {
		t.Fatal("bytes of the pre-checkpoint batches survive past the short batch")
	}
}

// TestCorruptCheckpointSlotFailsRecover flips one byte of the current slot —
// body or header — and expects Recover to refuse it without calling restore.
func TestCorruptCheckpointSlotFailsRecover(t *testing.T) {
	for _, at := range []int64{0, 9, 17, slotHeader + 3} {
		d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // epoch 3: slot 1 current, slot 0 one older
			snap := fmt.Sprintf("snapshot-%d", i)
			if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, []byte(snap)) }); err != nil {
				t.Fatal(err)
			}
		}
		slot := d.slots[d.epoch%2].f
		var b [1]byte
		if _, err := slot.ReadAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := slot.WriteAt(b[:], at); err != nil {
			t.Fatal(err)
		}
		restored := false
		_, err = d.Recover(func(io.Reader) error { restored = true; return nil }, func([]byte) error { return nil })
		d.Close()
		if err == nil || restored {
			t.Fatalf("byte %d flipped: Recover err=%v restored=%v, want an error and no restore", at, err, restored)
		}
	}
}

// TestBatchLargerThanPreallocationGrows commits a batch and a checkpoint that
// each outgrow the initial preallocation: both files grow by doubling, and
// the batch and the snapshot come back intact.
func TestBatchLargerThanPreallocationGrows(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDomain(dir, 1, FsyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	big := string(bytes.Repeat([]byte("b"), initialSize/2))
	commitBatch(t, d.Worker(0), "small")
	commitBatch(t, d.Worker(0), big, big, "last")
	if got := fileSize(t, filepath.Join(dir, "w0.log")); got != 2*initialSize {
		t.Fatalf("segment size %d, want %d after one doubling", got, 2*initialSize)
	}
	_, recs := recoverAll(t, d)
	if len(recs) != 4 || recs[0] != "small" || recs[1] != big || recs[2] != big || recs[3] != "last" {
		t.Fatalf("replayed %d records, want small, two big, last", len(recs))
	}

	snap := bytes.Repeat([]byte("s"), 3*initialSize/2)
	if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, snap) }); err != nil {
		t.Fatal(err)
	}
	for _, name := range slotNames {
		if got := fileSize(t, filepath.Join(dir, name)); got != 2*initialSize {
			t.Fatalf("%s size %d, want %d: both slots fit the snapshot", name, got, 2*initialSize)
		}
	}
	ckpt, recs := recoverAll(t, d)
	if len(ckpt) != 1 || ckpt[0] != string(snap) || len(recs) != 0 {
		t.Fatalf("got %d snapshot frames and %d records after the big checkpoint", len(ckpt), len(recs))
	}
}

// TestFsyncAlwaysWriteErrorFailsCommit closes the segment's file under the
// log: the record FsyncAlways writes at staging time fails, and Commit must
// report it instead of acknowledging the batch.
func TestFsyncAlwaysWriteErrorFailsCommit(t *testing.T) {
	d, err := OpenDomain(t.TempDir(), 1, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Worker(0)
	commitBatch(t, l, "durable")
	if err := l.seg.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.Begin()
	l.StageRecord(appendRec("lost"))
	if err := l.Commit(true); err == nil {
		t.Fatal("Commit acknowledged a record whose write failed")
	}
	if got := d.Stats().Committed; got != 1 {
		t.Fatalf("committed = %d, want 1: the failed record is not counted", got)
	}
	// The error belongs to that batch only.
	l.Begin()
	if err := l.Commit(true); err != nil {
		t.Fatalf("empty batch after the failure: %v", err)
	}
}
