// Package wal implements per-domain write-ahead logging and checkpointing
// for the delegation runtime (DESIGN.md §13).
//
// The layout exploits the delegation design's single-writer discipline:
// each domain worker is the sole mutator of the structures it sweeps, so
// each worker gets a private log segment — no locking, no contention —
// group-committed once per sweep batch. A domain-level checkpoint snapshots
// every structure under a quiescence gate (workers pause between sweep
// batches, never inside one) into one of two checkpoint slots and zeroes the
// segments, bounding replay work. Every file is preallocated with written
// zeros and then only overwritten in place, so a flush (fdatasync) writes
// data blocks and no file-system metadata.
//
// Fault model: the runtime supervises *goroutine* crashes (a panic escaping
// a worker sweep), not process crashes. In-memory structure state survives a
// crash, but a crash can interrupt a group commit and leave a torn frame at
// a segment tail; recovery heals that by restoring the latest checkpoint,
// zeroing the torn tail, and replaying the committed record prefix. The
// checkpoint protocol (slot write + segment reset, all under the gate) is
// atomic in this model because the checkpointer goroutine is never a fault
// target; a true process-crash port would also need the checkpoint epoch in
// the segment frames (noted in DESIGN.md §13).
//
// Durability axis: FsyncNone never syncs (the log only serves crash-replay
// inside the process), FsyncBatch syncs once per group commit, FsyncAlways
// syncs every record at append time. The modes are a *cost* axis for the
// configuration search — correctness of recovery in the goroutine-crash
// model does not depend on them.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncMode selects when log writes are flushed to stable storage.
type FsyncMode int

const (
	// FsyncNone never calls fsync: the log is an in-process replay journal.
	FsyncNone FsyncMode = iota
	// FsyncBatch fsyncs once per group commit (sweep-batch boundary).
	FsyncBatch
	// FsyncAlways fsyncs every record at append time.
	FsyncAlways
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncNone:
		return "none"
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// ParseFsyncMode parses "none", "batch", or "always".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "none":
		return FsyncNone, nil
	case "batch":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync mode %q (want none, batch, always)", s)
	}
}

// Commit fault actions, decided by a CommitHook at each group commit.
const (
	CommitNone = iota // no fault: commit normally
	CommitKill        // crash before writing: staged records are lost
	CommitTear        // crash mid-write: a torn frame is left at the tail
)

// CommitHook intercepts group commits for deterministic fault injection
// (internal/faultinject implements it via DecideWALFault). A kill panics
// before any staged byte reaches the segment — the crash-between-append
// case; a tear writes the staged batch minus its final bytes and then
// panics — the torn-tail case recovery must zero.
type CommitHook func(worker int) int

// Frame format, shared by log segments and checkpoint files:
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// Little-endian. A reader stops at the first frame whose header or payload
// is short or whose CRC mismatches — everything before is the committed
// prefix, everything after is torn garbage.
//
// Log segments use two nested layers of this format: the outer frames are
// group-commit batches whose payload is [u64 LSN][inner record frames], one
// outer frame per Commit (or per record in FsyncAlways mode); the inner
// frames are individual records. The outer CRC makes a batch commit
// atomic — either the whole batch replays or none of it — and the LSN lets
// Recover merge batches from all worker segments in commit order. Every
// batch payload carries at least its LSN, so a zero frame header — the
// preallocated zeros past the last commit — is the clean end of a segment.
// Checkpoint bodies use a single layer of plain record frames.
const frameHeader = 8

// maxFramePayload bounds a single frame so a corrupt length field cannot
// drive a giant allocation during replay.
const maxFramePayload = 1 << 26 // 64 MiB

// WriteFrame appends one framed payload to w. Checkpoint writers use it so
// checkpoint bodies share the segment frame format. The header is built in
// scratch the writer already owns — the checkpoint slot writer's, or a
// bytes.Buffer's free capacity — so writing a frame to either allocates
// nothing.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr []byte
	switch b := w.(type) {
	case *slotWriter:
		hdr = b.hdr[:0]
	case *bytes.Buffer:
		hdr = b.AvailableBuffer()
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one framed payload from r into a fresh buffer. It returns
// io.EOF at a clean end of stream and ErrTornFrame for a short or corrupt
// frame.
func ReadFrame(r io.Reader) ([]byte, error) { return NewFrameReader(r).Next() }

// ErrTornFrame marks a short or corrupt frame: the point where a crash
// interrupted an append. Replay treats it as the end of the log.
var ErrTornFrame = errors.New("wal: torn or corrupt frame")

// FrameReader reads framed payloads from a stream through one reusable
// buffer, so replaying a long checkpoint or record stream costs a handful of
// allocations instead of one per frame. The slice Next returns aliases the
// reader's buffer and is valid only until the next call — callers that
// retain a payload must copy it.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r. The zero value is not usable.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one framed payload into the reusable buffer. It returns io.EOF
// at a clean end of stream and ErrTornFrame for a short or corrupt frame.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTornFrame
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxFramePayload {
		return nil, ErrTornFrame
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, ErrTornFrame
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrTornFrame
	}
	return payload, nil
}

// Every log file starts as initialSize bytes of written zeros — not
// fallocate, whose unwritten extents convert on first write, a journalled
// metadata change — and doubles the same way when a write would pass its
// end. zeros is the read-only source of every zero write.
const initialSize = 1 << 20

var zeros [64 << 10]byte

// Checkpoint epoch e (counted since OpenDomain, 0 = none) is written in
// place into slot e%2 as [u64 epoch][u64 body length][u32 CRC-32 of body]
// [body], so the previous checkpoint stays whole until the next is complete.
const slotHeader = 20

var slotNames = [2]string{"checkpoint.0", "checkpoint.1"}

// DomainLog is one domain's durability unit: two checkpoint slots plus one
// log segment per worker.
//
// The gate is the quiescence protocol: each worker holds the read side
// while a logged sweep batch is in flight (lazily, from its first staged
// record to its group commit), and the checkpointer/recovery hold the write
// side — so a checkpoint or replay observes structures only at sweep-batch
// boundaries, where the single-writer state is consistent.
type DomainLog struct {
	dir   string
	fsync FsyncMode
	gate  sync.RWMutex
	segs  []*segment
	wls   []*WorkerLog

	slots [2]zfile // checkpoint state, touched only under the gate's write side
	epoch uint64
	cbuf  []byte     // retained recovery read buffer for the slot body
	ckptW slotWriter // retained checkpoint body writer

	// lsn numbers group commits domain-wide: each committed batch frame
	// carries the next value, and replay merges batches from all worker
	// segments in LSN order — so two writes to the same key from different
	// workers replay in commit order, not in segment order. (Two tasks
	// racing within one commit window have no defined order live either;
	// see the ordering note on Recover.)
	lsn atomic.Uint64

	committed  atomic.Uint64 // records group-committed since open
	replayed   atomic.Uint64 // records applied by Recover since open
	recoveries atomic.Uint64 // Recover invocations
	replayNs   atomic.Int64  // wall time spent inside Recover
	lastCkpt   atomic.Int64  // UnixNano of the last completed checkpoint; 0 = none
}

// zfile is one preallocated file: zeros from its last written byte to size.
type zfile struct {
	f     *os.File
	size  int64
	fsync FsyncMode
}

// openZeroed creates (or empties) path and preallocates it. On a
// preallocation error the file is still returned open, for the caller to
// close.
func openZeroed(path string, fsync FsyncMode) (zfile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return zfile{}, err
	}
	z := zfile{f: f, fsync: fsync}
	return z, z.grow(initialSize)
}

// grow doubles the file with written zeros until n bytes fit, then (the
// size changed) syncs it fully outside FsyncNone.
func (z *zfile) grow(n int64) error {
	if n <= z.size {
		return nil
	}
	size := max(z.size, initialSize)
	for size < n {
		size *= 2
	}
	if err := z.zero(z.size, size); err != nil {
		return err
	}
	z.size = size
	if z.fsync != FsyncNone {
		return z.f.Sync()
	}
	return nil
}

// writeAt writes p at off, growing the file first if p would not fit.
func (z *zfile) writeAt(p []byte, off int64) error {
	if err := z.grow(off + int64(len(p))); err != nil {
		return err
	}
	_, err := z.f.WriteAt(p, off)
	return err
}

// zero writes zeros over [from, to), within the file's size.
func (z *zfile) zero(from, to int64) error {
	for ; from < to; from += int64(len(zeros)) {
		if _, err := z.f.WriteAt(zeros[:min(to-from, int64(len(zeros)))], from); err != nil {
			return err
		}
	}
	return nil
}

// segment is one worker's log. Bytes [0, off) are committed batch frames,
// [off, high) may hold what a torn or failed write left, and everything
// from high on is zeros.
type segment struct {
	zfile
	off  int64
	high int64
	rbuf []byte // retained recovery read buffer, reused across recoveries
}

// put writes p at the write offset without moving it. The high-water
// covers p first, so a short write is zeroed by the next reset too.
func (s *segment) put(p []byte) error {
	s.high = max(s.high, s.off+int64(len(p)))
	return s.writeAt(p, s.off)
}

// append commits p: put, advance the write offset, and flush with
// fdatasync when sync is set.
func (s *segment) append(p []byte, sync bool) error {
	if err := s.put(p); err != nil {
		return err
	}
	s.off += int64(len(p))
	if sync {
		return fdatasync(s.f)
	}
	return nil
}

// reset zeroes [end, high), so no frame written before the reset can be
// read back, and rewinds the write offset and the high-water to end.
func (s *segment) reset(end int64) error {
	if err := s.zero(end, s.high); err != nil {
		return err
	}
	s.off, s.high = end, end
	return nil
}

// OpenDomain creates (or resets) the WAL directory for one domain with one
// segment per worker and two checkpoint slots. A fresh runtime start
// discards everything: in the goroutine-crash model there is no pre-start
// state to recover, and the checkpoint cadence re-establishes durability
// immediately (core writes an initial checkpoint right after Start).
func OpenDomain(dir string, workers int, fsync FsyncMode) (*DomainLog, error) {
	if workers < 1 {
		return nil, fmt.Errorf("wal: domain needs at least one worker segment")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Drop older builds' single-file checkpoint; openZeroed empties slots.
	_ = os.Remove(filepath.Join(dir, "checkpoint.ckpt"))
	_ = os.Remove(filepath.Join(dir, "checkpoint.tmp"))
	d := &DomainLog{dir: dir, fsync: fsync}
	var err error
	for i := range d.slots {
		if d.slots[i], err = openZeroed(filepath.Join(dir, slotNames[i]), fsync); err != nil {
			d.Close()
			return nil, err
		}
	}
	for i := 0; i < workers; i++ {
		z, err := openZeroed(filepath.Join(dir, fmt.Sprintf("w%d.log", i)), fsync)
		d.segs = append(d.segs, &segment{zfile: z})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.wls = append(d.wls, &WorkerLog{dom: d, seg: d.segs[i], worker: i})
	}
	return d, nil
}

// Dir returns the domain's WAL directory.
func (d *DomainLog) Dir() string { return d.dir }

// Worker returns worker i's log handle. Exactly one goroutine — the
// sweeping worker — may use it at a time; a respawned worker reuses the
// same handle (the crash defer released any held gate).
func (d *DomainLog) Worker(i int) *WorkerLog { return d.wls[i] }

// SetCommitHook installs a commit fault hook on every worker log. Call
// before workers run; the field is read without synchronisation.
func (d *DomainLog) SetCommitHook(h CommitHook) {
	for _, wl := range d.wls {
		wl.hook = h
	}
}

// Close closes the segment and slot files (a nil *os.File of a failed open
// closes with an error, which is dropped). Call after workers have stopped.
func (d *DomainLog) Close() {
	for _, s := range d.segs {
		_ = s.f.Close()
	}
	for _, z := range d.slots {
		_ = z.f.Close()
	}
}

// Stats is a point-in-time copy of the domain's durability counters.
type Stats struct {
	Committed      uint64
	Replayed       uint64
	Recoveries     uint64
	ReplayNs       uint64
	LastCheckpoint int64 // UnixNano; 0 = no checkpoint yet
}

// Stats snapshots the counters.
func (d *DomainLog) Stats() Stats {
	return Stats{
		Committed:      d.committed.Load(),
		Replayed:       d.replayed.Load(),
		Recoveries:     d.recoveries.Load(),
		ReplayNs:       uint64(d.replayNs.Load()),
		LastCheckpoint: d.lastCkpt.Load(),
	}
}

// Checkpoint quiesces the domain (write side of the gate: waits for every
// in-flight logged sweep batch to commit, blocks new ones), streams a
// snapshot through write into the next checkpoint slot — body, then header,
// then one flush — and resets every segment: the replay horizon moves to
// the checkpoint. A failed checkpoint leaves the previous one current.
func (d *DomainLog) Checkpoint(write func(w io.Writer) error) error {
	d.gate.Lock()
	defer d.gate.Unlock()
	return d.checkpointLocked(write)
}

func (d *DomainLog) checkpointLocked(write func(w io.Writer) error) error {
	epoch := d.epoch + 1
	slot := &d.slots[epoch%2]
	w := &d.ckptW
	w.slot, w.off, w.crc = slot, slotHeader, 0
	if err := write(w); err != nil {
		return err
	}
	var hdr [slotHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(w.off-slotHeader))
	binary.LittleEndian.PutUint32(hdr[16:20], w.crc)
	if err := slot.writeAt(hdr[:], 0); err != nil {
		return err
	}
	if d.fsync != FsyncNone {
		if err := fdatasync(slot.f); err != nil {
			return err
		}
	}
	d.epoch = epoch
	for _, s := range d.segs {
		if err := s.reset(0); err != nil {
			return err
		}
	}
	d.lastCkpt.Store(time.Now().UnixNano())
	// Make room for a snapshot this size in the slot the next one takes.
	return d.slots[(epoch+1)%2].grow(w.off)
}

// slotWriter streams a snapshot body into a slot after its header, growing
// the slot as needed and folding every byte into the body CRC.
type slotWriter struct {
	slot *zfile
	off  int64
	crc  uint32
	hdr  [frameHeader]byte // WriteFrame's header scratch
}

// Write implements io.Writer.
func (w *slotWriter) Write(p []byte) (int, error) {
	if err := w.slot.writeAt(p, w.off); err != nil {
		return 0, err
	}
	w.off += int64(len(p))
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}

// readCheckpoint reads and verifies the current epoch's slot: a header
// naming another epoch or an oversized body, or a CRC mismatch, is an error,
// never a restore of garbage.
func (d *DomainLog) readCheckpoint() ([]byte, error) {
	slot := &d.slots[d.epoch%2]
	var hdr [slotHeader]byte
	if _, err := slot.f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("wal: checkpoint header: %w", err)
	}
	epoch, n := binary.LittleEndian.Uint64(hdr[0:8]), binary.LittleEndian.Uint64(hdr[8:16])
	if epoch != d.epoch || n > uint64(slot.size-slotHeader) {
		return nil, fmt.Errorf("wal: %s holds epoch %d, %d bytes; want epoch %d", slotNames[d.epoch%2], epoch, n, d.epoch)
	}
	if uint64(cap(d.cbuf)) < n {
		d.cbuf = make([]byte, n)
	}
	body := d.cbuf[:n]
	if _, err := slot.f.ReadAt(body, slotHeader); err != nil {
		return nil, fmt.Errorf("wal: checkpoint body: %w", err)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return nil, fmt.Errorf("wal: checkpoint epoch %d fails its CRC", d.epoch)
	}
	return body, nil
}

// Recover quiesces the domain and rebuilds structure state: restore is
// called with the current checkpoint (skipped when none exists), then apply
// is called once per committed log record. Batches from all worker segments
// are merged in LSN (commit) order, so replay reproduces the commit order of
// conflicting writes across workers; only tasks racing within one commit
// window — which have no defined order live either — replay in an arbitrary
// but deterministic order. A torn tail — the batch a crash interrupted — is
// detected by CRC and zeroed off its segment, and appends continue from the
// end of the committed prefix.
//
// Recover returns the number of records applied.
func (d *DomainLog) Recover(restore func(r io.Reader) error, apply func(rec []byte) error) (int, error) {
	d.gate.Lock()
	defer d.gate.Unlock()
	start := time.Now()
	d.recoveries.Add(1)

	if d.epoch > 0 {
		body, err := d.readCheckpoint()
		if err != nil {
			return 0, err
		}
		if err := restore(bytes.NewReader(body)); err != nil {
			return 0, fmt.Errorf("wal: checkpoint restore: %w", err)
		}
	}

	var batches []batch
	for _, s := range d.segs {
		bs, err := readSegment(s)
		if err != nil {
			return 0, err
		}
		batches = append(batches, bs...)
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].lsn < batches[j].lsn })

	applied := 0
	for _, b := range batches {
		off := 0
		for off < len(b.body) {
			// The outer batch CRC already validated these bytes; a short
			// inner frame here is a writer bug, not a torn append.
			if len(b.body)-off < frameHeader {
				return applied, fmt.Errorf("wal: corrupt record framing in batch %d", b.lsn)
			}
			n := int(binary.LittleEndian.Uint32(b.body[off : off+4]))
			if off+frameHeader+n > len(b.body) {
				return applied, fmt.Errorf("wal: corrupt record framing in batch %d", b.lsn)
			}
			if err := apply(b.body[off+frameHeader : off+frameHeader+n]); err != nil {
				return applied, fmt.Errorf("wal: replay batch %d: %w", b.lsn, err)
			}
			applied++
			off += frameHeader + n
		}
	}
	d.replayed.Add(uint64(applied))
	d.replayNs.Add(time.Since(start).Nanoseconds())
	return applied, nil
}

// batch is one committed group-commit unit read back from a segment.
type batch struct {
	lsn  uint64
	body []byte // concatenated record frames
}

// readSegment collects every committed batch in one segment, reading up to
// its high-water (not the whole file), and resets the segment to the end of
// that prefix. The bytes land in a per-segment buffer retained across
// recoveries (the returned batches alias it, so per-segment — not
// domain-shared — retention is what keeps Recover's read-all-then-apply
// merge sound), so a crash storm's replays stop paying one allocation each.
func readSegment(s *segment) ([]batch, error) {
	size := int(s.high)
	if cap(s.rbuf) < size {
		s.rbuf = make([]byte, size)
	}
	buf := s.rbuf[:size]
	if size > 0 {
		if _, err := s.f.ReadAt(buf, 0); err != nil {
			return nil, err
		}
	}
	var out []batch
	off := 0
	for off < len(buf) {
		if len(buf)-off < frameHeader {
			break // torn header
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		if n > maxFramePayload || off+frameHeader+n > len(buf) {
			break // torn payload
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[off+4:off+8]) {
			break // corrupt frame
		}
		if n < 8 {
			break // zero header (clean end) or a frame without its LSN
		}
		out = append(out, batch{lsn: binary.LittleEndian.Uint64(payload[:8]), body: payload[8:]})
		off += frameHeader + n
	}
	return out, s.reset(int64(off))
}

// WorkerLog is one worker's append handle: staging buffer for the current
// sweep batch plus the group-commit protocol. It satisfies the delegation
// layer's WALSink interface structurally, so delegation never imports wal.
//
// Lifecycle per sweep batch: the sweep calls Begin on its first logged
// task (taking the gate's read side — empty or read-only sweeps never touch
// the gate), StageRecord per logged task, and Commit at the end of the
// pass; a crash unwinds through Abort instead. Exactly one goroutine uses a
// WorkerLog at a time.
type WorkerLog struct {
	dom     *DomainLog
	seg     *segment
	worker  int
	staging []byte
	out     []byte // scratch for the framed outer batch; reused across commits
	records int
	active  bool
	hook    CommitHook
	err     error // first write or flush error of the open batch (FsyncAlways)

	// arena, when set, backs staging and out with worker-arena memory
	// instead of retained heap slices: Begin carves a staging block sized to
	// the batch high-water, frameBatch carves the outer frame exactly, and
	// Commit/Abort drop both references so the sweep's post-commit arena
	// reset can never be observed through a stale slice. Growth past the
	// carved block falls back to the heap transparently (append reallocates)
	// and only teaches the next Begin a bigger high-water.
	arena      Allocator
	stagingCap int // high-water of staged batch bytes, sizes arena blocks
}

// Allocator is the slice of the worker arena this package needs; satisfied
// structurally by *mem.Arena so wal stays free of a mem import.
type Allocator interface {
	Alloc(n int) []byte
}

// minStagingAlloc floors the arena staging block so the first batches of a
// fresh worker do not crawl through repeated growth.
const minStagingAlloc = 256

// SetArena installs the worker's batch arena. Call before the worker
// sweeps; like the delegation layer's Set* hooks the field is read without
// synchronisation.
func (l *WorkerLog) SetArena(a Allocator) { l.arena = a }

// frameBatch wraps the given record frames into one outer batch frame —
// [u32 len][u32 CRC][u64 LSN][record frames] — stamping the domain's next
// LSN. The CRC covers LSN plus frames, so a torn batch is detected as a
// unit. The result aliases l.out and is valid until the next call.
func (l *WorkerLog) frameBatch(frames []byte) []byte {
	lsn := l.dom.lsn.Add(1)
	if l.arena != nil {
		// Exact-size arena carve: the framed batch is write-once scratch
		// that dies at the group commit, the canonical arena tenant.
		l.out = l.arena.Alloc(frameHeader + 8 + len(frames))[:0]
	}
	l.out = append(l.out[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	l.out = binary.LittleEndian.AppendUint64(l.out, lsn)
	l.out = append(l.out, frames...)
	payload := l.out[frameHeader:]
	binary.LittleEndian.PutUint32(l.out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.out[4:8], crc32.ChecksumIEEE(payload))
	return l.out
}

// Begin opens a logged sweep batch: it takes the domain gate's read side,
// blocking only when a checkpoint or recovery is in progress.
func (l *WorkerLog) Begin() {
	l.dom.gate.RLock()
	l.active = true
	if l.arena != nil {
		want := l.stagingCap
		if want < minStagingAlloc {
			want = minStagingAlloc
		}
		l.staging = l.arena.Alloc(want)[:0]
	} else {
		l.staging = l.staging[:0]
	}
	l.records = 0
}

// StageRecord appends one framed record to the batch. enc appends the
// record payload to its argument and returns the extended slice; an encoder
// that appends nothing stages no record. In FsyncAlways mode the frame is
// written and synced immediately instead of staged (Commit reports errors).
func (l *WorkerLog) StageRecord(enc func(dst []byte) []byte) {
	base := len(l.staging)
	// Reserve the frame header, let enc append the payload, then backfill.
	l.staging = append(l.staging, 0, 0, 0, 0, 0, 0, 0, 0)
	l.staging = enc(l.staging)
	n := len(l.staging) - base - frameHeader
	if n <= 0 {
		l.staging = l.staging[:base]
		return
	}
	payload := l.staging[base+frameHeader:]
	binary.LittleEndian.PutUint32(l.staging[base:base+4], uint32(n))
	binary.LittleEndian.PutUint32(l.staging[base+4:base+8], crc32.ChecksumIEEE(payload))
	if len(l.staging) > l.stagingCap {
		l.stagingCap = len(l.staging) // batch high-water: sizes the next arena carve
	}
	l.records++
	if l.dom.fsync == FsyncAlways {
		// Each record becomes its own single-record batch so it carries an
		// LSN and lands on disk immediately.
		if err := l.seg.append(l.frameBatch(l.staging[base:]), true); err != nil && l.err == nil {
			l.err = err
		}
		l.staging = l.staging[:base]
	}
}

// Commit group-commits the batch: the staged record frames are wrapped in
// one LSN-stamped batch frame and written at the segment's offset in one
// write (flushed in FsyncBatch mode), then the gate's read side is
// released. It returns the batch's first write or flush error.
// allowFaults gates the commit fault hook — shutdown's final seal sweep
// passes false so an injected commit fault cannot crash the sealing
// goroutine.
//
// A commit fault panics out of Commit with the gate still held; the sweep's
// crash defer runs Abort, which releases it. Kill panics before any staged
// byte reaches the segment; Tear writes the framed batch minus its final
// bytes first, leaving the torn tail recovery must zero.
func (l *WorkerLog) Commit(allowFaults bool) error {
	if !l.active {
		return nil
	}
	var framed []byte
	if len(l.staging) > 0 {
		framed = l.frameBatch(l.staging)
	}
	if h := l.hook; h != nil && allowFaults {
		switch h(l.worker) {
		case CommitKill:
			panic(fmt.Sprintf("wal: injected kill before group commit (worker %d)", l.worker))
		case CommitTear:
			if n := len(framed); n > 0 {
				_ = l.seg.put(framed[:n-3])
			}
			panic(fmt.Sprintf("wal: injected torn-tail crash during group commit (worker %d)", l.worker))
		}
	}
	err := l.err
	if err == nil && len(framed) > 0 {
		err = l.seg.append(framed, l.dom.fsync == FsyncBatch)
	}
	if err == nil {
		l.dom.committed.Add(uint64(l.records))
	}
	if l.arena != nil {
		l.staging, l.out = nil, nil // arena memory: drop refs before the sweep resets it
	} else {
		l.staging = l.staging[:0]
	}
	l.records, l.err = 0, nil
	l.active = false
	l.dom.gate.RUnlock()
	return err
}

// Abort discards the staged batch and releases the gate. The sweep's crash
// defer calls it when a panic (injected or genuine) unwinds a logged batch;
// it is a no-op when no batch is open.
func (l *WorkerLog) Abort() {
	if !l.active {
		return
	}
	if l.arena != nil {
		l.staging, l.out = nil, nil // the crashed worker's arena is discarded by recovery
	} else {
		l.staging = l.staging[:0]
	}
	l.records, l.err = 0, nil
	l.active = false
	l.dom.gate.RUnlock()
}
