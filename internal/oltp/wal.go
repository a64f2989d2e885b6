// Durability adapter: Warehouse as a core.Durable structure (DESIGN.md §13).
//
// The logical log records are post-state effects — "table T now maps key K
// to V" / "key K is gone from table T" — not operations. Effects are
// idempotent, so the at-least-once replay the goroutine-crash model allows
// (a batch may commit an instant before its crash is detected) converges to
// the same state, and they are insensitive to the non-determinism of
// re-executing reads. One WAL record carries every effect of one task: a
// whole single-warehouse transaction, one warehouse's part of a
// cross-warehouse transaction, or one pipelined statement — so a record is
// also the atomic unit of replay for that task's writes.
package oltp

import (
	"encoding/binary"
	"fmt"
	"io"

	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

// Effect opcodes. An effect is [u8 opcode][u8 table][u64 key]{[u64 val]}.
const (
	effSet    = 1 // key now holds val (covers Insert, Update and RMW post-state)
	effDelete = 2 // key is gone
)

const (
	effSetLen    = 1 + 1 + 8 + 8
	effDeleteLen = 1 + 1 + 8
)

// appendEffSet appends one set effect.
func appendEffSet(dst []byte, t tpcc.Table, key, val uint64) []byte {
	dst = append(dst, effSet, byte(t))
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return binary.LittleEndian.AppendUint64(dst, val)
}

// appendEffDelete appends one delete effect.
func appendEffDelete(dst []byte, t tpcc.Table, key uint64) []byte {
	dst = append(dst, effDelete, byte(t))
	return binary.LittleEndian.AppendUint64(dst, key)
}

// WALApply implements core.Durable: it decodes one record's effects and
// applies them in order. Set is an upsert (restore-then-replay may see the
// key either present or absent), delete of an absent key is a no-op —
// idempotence is what makes at-least-once replay safe.
func (w *Warehouse) WALApply(rec []byte) error {
	for len(rec) > 0 {
		if len(rec) < 2 {
			return fmt.Errorf("oltp: truncated WAL effect")
		}
		if int(rec[1]) >= len(w.tables) {
			return fmt.Errorf("oltp: WAL effect for unknown table %d", rec[1])
		}
		tb := w.tables[rec[1]]
		switch rec[0] {
		case effSet:
			if len(rec) < effSetLen {
				return fmt.Errorf("oltp: truncated WAL set effect")
			}
			k := binary.LittleEndian.Uint64(rec[2:10])
			v := binary.LittleEndian.Uint64(rec[10:18])
			if !tb.Insert(k, v, nil) {
				tb.Update(k, v, nil)
			}
			rec = rec[effSetLen:]
		case effDelete:
			if len(rec) < effDeleteLen {
				return fmt.Errorf("oltp: truncated WAL delete effect")
			}
			tb.Delete(binary.LittleEndian.Uint64(rec[2:10]), nil)
			rec = rec[effDeleteLen:]
		default:
			return fmt.Errorf("oltp: unknown WAL effect opcode %d", rec[0])
		}
	}
	return nil
}

// WALSnapshot implements core.Durable: each table is one frame of
// [u8 table][u64 count][count × (u64 key, u64 val)], written in tpcc.Tables
// order. Snapshotting needs an ordered traversal, so a WAL-enabled engine
// requires a Ranger index (every tree qualifies; the hash map does not and
// fails here at the initial checkpoint, i.e. at startup, not mid-run).
func (w *Warehouse) WALSnapshot(dst io.Writer) error {
	// One frame buffer (w.snap) and its scan collector (w.snapKV) retained
	// across checkpoints: snapshots run one at a time, under the domain's
	// quiescence gate.
	for _, t := range tpcc.Tables {
		r, err := w.ranger(t)
		if err != nil {
			return fmt.Errorf("oltp: WAL checkpoint: %w", err)
		}
		w.snap = append(w.snap[:0], byte(t))
		w.snap = binary.LittleEndian.AppendUint64(w.snap, uint64(w.tables[t].Len()))
		r.Scan(0, ^uint64(0), w.snapKV, nil)
		if err := wal.WriteFrame(dst, w.snap); err != nil {
			return err
		}
	}
	return nil
}

// WALRestore implements core.Durable: it rebuilds every table from a
// snapshot, replacing the live indexes with fresh ones loaded from the
// checkpoint frames. Recovery holds the domain quiesced (and warehouse
// composites never arm bypass reads), so the in-place swap is unobservable.
func (w *Warehouse) WALRestore(src io.Reader) error {
	seen := map[tpcc.Table]bool{}
	// One reusable frame buffer for the whole stream: each frame is fully
	// loaded into fresh index nodes before the next read overwrites it.
	fr := wal.NewFrameReader(src)
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(frame) < 9 {
			return fmt.Errorf("oltp: short WAL snapshot frame")
		}
		t := tpcc.Table(frame[0])
		if int(t) >= len(w.tables) {
			return fmt.Errorf("oltp: WAL snapshot for unknown table %d", frame[0])
		}
		count := binary.LittleEndian.Uint64(frame[1:9])
		body := frame[9:]
		if uint64(len(body)) != count*16 {
			return fmt.Errorf("oltp: WAL snapshot for table %s: %d pairs declared, %d bytes present", t, count, len(body))
		}
		tb := w.newIndex()
		for off := 0; off < len(body); off += 16 {
			tb.Insert(binary.LittleEndian.Uint64(body[off:off+8]),
				binary.LittleEndian.Uint64(body[off+8:off+16]), nil)
		}
		w.tables[t] = tb
		seen[t] = true
	}
	for _, t := range tpcc.Tables {
		if !seen[t] {
			return fmt.Errorf("oltp: WAL snapshot missing table %s", t)
		}
	}
	return nil
}

// encStmtEffect is the one shared WAL encoder of the pipelined path,
// mirroring execStmt: the statement future travels as the argument, so a
// logged SubmitAsync allocates nothing extra. It runs on the worker after
// exec, so the effect reflects the result: RMW logs its computed post-value,
// a failed statement and a read log nothing.
func encStmtEffect(dst []byte, arg any) []byte {
	f := arg.(*stmtFuture)
	if !f.ok {
		return dst
	}
	switch f.kind {
	case stUpdate, stInsert:
		return appendEffSet(dst, f.table, f.key, f.arg)
	case stRMW:
		return appendEffSet(dst, f.table, f.key, f.val)
	case stDelete:
		return appendEffDelete(dst, f.table, f.key)
	}
	return dst
}
