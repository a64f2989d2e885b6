package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"testing"
)

// FuzzWALRecover corrupts a recovered-from domain — arbitrary bytes over the
// segment's written region and over the current checkpoint slot — and checks
// Recover against a reference scan: it never panics, replays exactly the
// longest valid-frame prefix, never replays a frame from before the last
// reset, refuses a slot that does not verify, and leaves the segment so that
// appends continue right after the prefix.
//
// mode picks how seg lands at segAt (modulo the written length): 0
// overwrites, 1 XORs, 2 zeroes everything from segAt on (a truncated
// write). slot is XORed into the slot's header and body at slotAt.
func FuzzWALRecover(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint8(0), []byte{}, uint32(0))
	f.Add([]byte{0xff, 0, 0, 0}, uint32(44), uint8(0), []byte{}, uint32(0))
	f.Add([]byte{}, uint32(60), uint8(2), []byte{}, uint32(0))
	f.Add([]byte{0x01}, uint32(20), uint8(1), []byte{0x80}, uint32(30))
	f.Fuzz(func(t *testing.T, seg []byte, segAt uint32, mode uint8, slot []byte, slotAt uint32) {
		d, err := OpenDomain(t.TempDir(), 1, FsyncNone)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		l := d.Worker(0)
		// A long batch before the checkpoint and shorter ones after it, so
		// the reset has pre-checkpoint bytes to zero past the new tail.
		commitBatch(t, l, "pre-reset-record-one-with-some-length", "pre-reset-record-two-with-some-length")
		if err := d.Checkpoint(func(w io.Writer) error {
			if err := WriteFrame(w, []byte("snap-1")); err != nil {
				return err
			}
			return WriteFrame(w, []byte("snap-2"))
		}); err != nil {
			t.Fatal(err)
		}
		commitBatch(t, l, "post-1", "post-2")
		commitBatch(t, l, "post-3")

		// Everything past the high-water is zeros: the reset cleared the
		// pre-checkpoint batch's tail.
		s := d.segs[0]
		past := make([]byte, 4096)
		if _, err := s.f.ReadAt(past, s.high); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(past, make([]byte, len(past))) {
			t.Fatal("bytes written before the checkpoint survive past the high-water")
		}

		// Corrupt the segment's written region.
		region := make([]byte, s.high)
		if _, err := s.f.ReadAt(region, 0); err != nil {
			t.Fatal(err)
		}
		at := int(segAt % uint32(len(region)))
		lo, hi := at, at
		switch mode % 3 {
		case 0:
			hi = at + copy(region[at:], seg)
		case 1:
			for i := 0; i < len(seg) && at+i < len(region); i++ {
				region[at+i] ^= seg[i]
			}
			hi = min(at+len(seg), len(region))
		case 2:
			clear(region[at:])
			hi = len(region)
		}
		if _, err := s.f.WriteAt(region, 0); err != nil {
			t.Fatal(err)
		}

		// Corrupt the current checkpoint slot.
		sl := &d.slots[d.epoch%2]
		var hdr [slotHeader]byte
		if _, err := sl.f.ReadAt(hdr[:], 0); err != nil {
			t.Fatal(err)
		}
		slotBytes := make([]byte, slotHeader+binary.LittleEndian.Uint64(hdr[8:16]))
		if _, err := sl.f.ReadAt(slotBytes, 0); err != nil {
			t.Fatal(err)
		}
		if len(slot) > 0 {
			sat := int(slotAt % uint32(len(slotBytes)))
			for i := 0; i < len(slot) && sat+i < len(slotBytes); i++ {
				slotBytes[sat+i] ^= slot[i]
			}
			if _, err := sl.f.WriteAt(slotBytes, 0); err != nil {
				t.Fatal(err)
			}
		}
		wantBody, slotOK := refSlot(t, sl, d.epoch)
		want, batches, framingOK := refScan(region)

		var body []byte
		restored := false
		var got []string
		_, err = d.Recover(func(r io.Reader) error {
			restored = true
			body, err = io.ReadAll(r)
			return err
		}, func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if !slotOK {
			if err == nil || restored {
				t.Fatalf("corrupt slot: Recover err=%v restored=%v, want an error and no restore", err, restored)
			}
			return
		}
		if !framingOK {
			if err == nil {
				t.Fatal("a batch with corrupt inner framing replayed without error")
			}
			return
		}
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("restored %q, want %q", body, wantBody)
		}
		if !sameRecords(got, want, batches) {
			t.Fatalf("replayed %q, want the valid prefix %q", got, want)
		}
		for _, b := range batches {
			if b.pre && (b.end <= lo || b.start >= hi) {
				t.Fatalf("pre-checkpoint frame at [%d,%d) replayed from bytes the input did not touch", b.start, b.end)
			}
		}

		// The reset zeroed everything after the prefix; appends continue there.
		end := 0
		if len(batches) > 0 {
			end = batches[len(batches)-1].end
		}
		tail := make([]byte, len(region)-end)
		if _, err := s.f.ReadAt(tail, int64(end)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tail, make([]byte, len(tail))) || s.off != int64(end) || s.high != int64(end) {
			t.Fatalf("after recovery: off=%d high=%d, tail zeroed=%v; want both at %d", s.off, s.high, bytes.Equal(tail, make([]byte, len(tail))), end)
		}
		commitBatch(t, l, "after")
		got = got[:0]
		if _, err := d.Recover(func(io.Reader) error { return nil }, func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		}); err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		if !sameRecords(got, append(want, "after"), append(batches, refBatch{lsn: d.lsn.Load()})) {
			t.Fatalf("after an append, replayed %q, want %q then [after]", got, want)
		}
	})
}

// refBatch is one valid outer frame found by refScan.
type refBatch struct {
	start, end int
	lsn        uint64
	pre        bool // carries a record written before the checkpoint
}

// refScan is the reference reader: the records of the longest prefix of
// valid batch frames in seg, in file order, and whether every valid batch's
// inner framing is consistent.
func refScan(seg []byte) (recs []string, batches []refBatch, framingOK bool) {
	framingOK = true
	for off := 0; off+8 <= len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		if n < 8 || n > len(seg)-off-8 || crc32.ChecksumIEEE(seg[off+8:off+8+n]) != binary.LittleEndian.Uint32(seg[off+4:]) {
			break
		}
		b := refBatch{start: off, end: off + 8 + n, lsn: binary.LittleEndian.Uint64(seg[off+8:])}
		for in := seg[off+16 : off+8+n]; len(in) > 0; {
			if len(in) < 8 || int(binary.LittleEndian.Uint32(in)) > len(in)-8 {
				framingOK = false
				break
			}
			m := int(binary.LittleEndian.Uint32(in))
			rec := string(in[8 : 8+m])
			b.pre = b.pre || bytes.HasPrefix(in[8:8+m], []byte("pre-"))
			recs = append(recs, rec)
			in = in[8+m:]
		}
		batches = append(batches, b)
		off = b.end
	}
	return recs, batches, framingOK
}

// refSlot is the reference slot check: the body, and whether the header
// names this epoch and a body that fits and matches its CRC.
func refSlot(t *testing.T, z *zfile, epoch uint64) ([]byte, bool) {
	var hdr [slotHeader]byte
	if _, err := z.f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if binary.LittleEndian.Uint64(hdr[0:8]) != epoch || n > uint64(z.size-slotHeader) {
		return nil, false
	}
	body := make([]byte, n)
	if _, err := z.f.ReadAt(body, slotHeader); err != nil {
		t.Fatal(err)
	}
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(hdr[16:20])
}

// sameRecords compares a replay with the reference. Recover applies batches
// in LSN order, which is file order unless the input forged LSNs; then only
// the multiset of records is defined.
func sameRecords(got, want []string, batches []refBatch) bool {
	ordered := true
	for i := 1; i < len(batches); i++ {
		ordered = ordered && batches[i-1].lsn < batches[i].lsn
	}
	if !ordered {
		got, want = append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	return fmt.Sprint(len(got), got) == fmt.Sprint(len(want), want)
}
