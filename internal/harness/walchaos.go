package harness

// WAL chaos mode: drive the real runtime with the per-domain write-ahead
// log enabled under seeded crash schedules — worker kills, kills inside the
// group commit, torn segment tails — and verify the durability contract:
// a seeded run with injected crashes and recovery reaches a final state
// byte-equal to the crash-free run of the same seed (clients retry failed
// operations; records are idempotent post-state effects, so at-least-once
// replay converges). This is the executable form of DESIGN.md §13.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"robustconf/internal/core"
	"robustconf/internal/faultinject"
	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// walIndex is what the durable wrapper needs of its inner index: point ops,
// an ordered scan for snapshots and hashing, and a batch kernel.
type walIndex interface {
	index.Index
	index.Ranger
	index.BatchKernel
}

// WALTree wraps an ordered index with the logical record codec and the
// core.Durable contract: snapshots stream the sorted contents, restore
// rebuilds a fresh inner index and swaps it in atomically (bypass readers
// may race the swap; the atomic pointer keeps the race benign — their
// validation already fails post-crash, the load must merely be untorn).
type WALTree struct {
	kind kinds.Kind
	cur  atomic.Value // walIndex
}

// NewWALTree builds the durable wrapper over an empty index of the kind. A
// snapshot streams the contents in key order, so the kind's index must be an
// index.Ranger (and a batch kernel, as all four are); for one that is not
// (the Hash Map) it returns an error.
func NewWALTree(kind kinds.Kind) (*WALTree, error) {
	in, ok := kind.New().(walIndex)
	if !ok {
		return nil, fmt.Errorf("the %s cannot be made durable: its snapshot needs an ordered scan", kind.Name())
	}
	t := &WALTree{kind: kind}
	t.cur.Store(in)
	return t, nil
}

func (t *WALTree) inner() walIndex { return t.cur.Load().(walIndex) }

// ConcurrentReadSafe forwards the inner index's read-safety, so core arms
// (or refuses) the bypass path exactly as it would for the bare index.
func (t *WALTree) ConcurrentReadSafe() bool {
	crs, ok := t.inner().(index.ConcurrentReadSafe)
	return ok && crs.ConcurrentReadSafe()
}

// Get/Insert/Update/Delete/Scan forward to the current inner index.
func (t *WALTree) Get(k uint64) (uint64, bool) { return t.inner().Get(k, nil) }
func (t *WALTree) Insert(k, v uint64) bool     { return t.inner().Insert(k, v, nil) }
func (t *WALTree) Update(k, v uint64) bool     { return t.inner().Update(k, v, nil) }
func (t *WALTree) Delete(k uint64) bool        { return t.inner().Delete(k, nil) }
func (t *WALTree) Scan(fn func(k, v uint64) bool) {
	t.inner().Scan(0, ^uint64(0), fn, nil)
}

// Set upserts k to v (the idempotent post-state effect every record encodes).
func (t *WALTree) Set(k, v uint64) {
	in := t.inner()
	if !in.Insert(k, v, nil) {
		in.Update(k, v, nil)
	}
}

// Logical record codec: a record is the idempotent post-state effect of one
// committed task — re-applying any committed suffix converges.
const (
	walRecSet    byte = 1 // [k u64][v u64]      → set k to v
	walRecDelete byte = 2 // [k u64]             → delete k
	walRecPair   byte = 3 // [k1 u64][k2 u64][v u64] → set both keys to v
)

// AppendWALSet encodes a set record.
func AppendWALSet(dst []byte, k, v uint64) []byte {
	dst = append(dst, walRecSet)
	dst = binary.LittleEndian.AppendUint64(dst, k)
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendWALDelete encodes a delete record.
func AppendWALDelete(dst []byte, k uint64) []byte {
	dst = append(dst, walRecDelete)
	return binary.LittleEndian.AppendUint64(dst, k)
}

// AppendWALPair encodes a two-key set record: both keys move to v in one
// record, so a recovered state never shows the pair torn.
func AppendWALPair(dst []byte, k1, k2, v uint64) []byte {
	dst = append(dst, walRecPair)
	dst = binary.LittleEndian.AppendUint64(dst, k1)
	dst = binary.LittleEndian.AppendUint64(dst, k2)
	return binary.LittleEndian.AppendUint64(dst, v)
}

// WALSnapshot streams the sorted contents as fixed 16-byte pairs.
func (t *WALTree) WALSnapshot(w io.Writer) error {
	var buf [16]byte
	var err error
	t.inner().Scan(0, ^uint64(0), func(k, v uint64) bool {
		binary.LittleEndian.PutUint64(buf[:8], k)
		binary.LittleEndian.PutUint64(buf[8:], v)
		_, err = w.Write(buf[:])
		return err == nil
	}, nil)
	return err
}

// restoreChunk sizes WALRestore's read buffer: 4Ki pairs per read call, so
// restoring a checkpoint costs one read syscall per 64KiB instead of one
// per 16-byte pair.
const restoreChunk = 1 << 16

// WALRestore rebuilds the wrapper in place from a snapshot stream: a fresh
// inner index is filled and swapped in atomically. The stream is consumed
// in chunks, and the pairs arrive sorted (WALSnapshot scans in order), so
// the inner index's sorted-load fast path sees a pure ascending key
// sequence.
func (t *WALTree) WALRestore(r io.Reader) error {
	in := t.kind.New().(walIndex)
	buf := make([]byte, restoreChunk)
	fill := 0
	for {
		n, err := r.Read(buf[fill:])
		fill += n
		rest := 0
		for ; rest+16 <= fill; rest += 16 {
			in.Insert(binary.LittleEndian.Uint64(buf[rest:rest+8]),
				binary.LittleEndian.Uint64(buf[rest+8:rest+16]), nil)
		}
		fill = copy(buf, buf[rest:fill])
		if err == io.EOF {
			if fill != 0 {
				return io.ErrUnexpectedEOF
			}
			break
		}
		if err != nil {
			return err
		}
	}
	t.cur.Store(in)
	return nil
}

// ExecBatch implements delegation.BatchKernel by forwarding to the inner
// index's batch kernel, so a WAL-wrapped structure keeps the
// interleaved-execution axis (DESIGN.md §15).
func (t *WALTree) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	t.inner().ExecBatch(kinds, keys, vals, outVals, outOKs)
}

// WALApply applies one committed logical record.
func (t *WALTree) WALApply(rec []byte) error {
	if len(rec) < 9 {
		return fmt.Errorf("harness: short WAL record (%d bytes)", len(rec))
	}
	k := binary.LittleEndian.Uint64(rec[1:9])
	switch rec[0] {
	case walRecSet:
		if len(rec) < 17 {
			return fmt.Errorf("harness: short set record")
		}
		t.Set(k, binary.LittleEndian.Uint64(rec[9:17]))
	case walRecDelete:
		t.inner().Delete(k, nil)
	case walRecPair:
		if len(rec) < 25 {
			return fmt.Errorf("harness: short pair record")
		}
		v := binary.LittleEndian.Uint64(rec[17:25])
		t.Set(k, v)
		t.Set(binary.LittleEndian.Uint64(rec[9:17]), v)
	default:
		return fmt.Errorf("harness: unknown WAL record kind %d", rec[0])
	}
	return nil
}

// Hash folds the sorted contents into an FNV-1a digest; equal digests over
// sorted scans mean byte-equal snapshots.
func (t *WALTree) Hash() uint64 {
	h := uint64(14695981039346656037)
	var buf [16]byte
	t.inner().Scan(0, ^uint64(0), func(k, v uint64) bool {
		binary.LittleEndian.PutUint64(buf[:8], k)
		binary.LittleEndian.PutUint64(buf[8:], v)
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return true
	}, nil)
	return h
}

// WALChaosSchedules returns the crash schedules the WAL chaos suite runs:
// plain worker kills, kills inside the group commit, torn segment tails,
// and a mixed storm of all three.
func WALChaosSchedules() []ChaosSchedule {
	return []ChaosSchedule{
		{
			Name: "wal-kill",
			Rules: []faultinject.Rule{
				{Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 150},
			},
		},
		{
			Name: "wal-kill-commit",
			Rules: []faultinject.Rule{
				{Kind: faultinject.WALKillCommit, Worker: -1, EveryNth: 40},
			},
		},
		{
			Name: "wal-torn-tail",
			Rules: []faultinject.Rule{
				{Kind: faultinject.WALTornTail, Worker: -1, EveryNth: 40},
			},
		},
		{
			Name: "wal-mixed",
			Rules: []faultinject.Rule{
				{Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 250},
				{Kind: faultinject.WALKillCommit, Worker: -1, EveryNth: 60},
				{Kind: faultinject.WALTornTail, Worker: -1, EveryNth: 70},
			},
		},
	}
}

// WALChaosReport summarises one WAL chaos run against its golden twin.
type WALChaosReport struct {
	Schedule      string
	Seed          int64
	Ops           int    // operations that eventually succeeded
	Retries       int    // extra attempts spent on crashed batches
	Recoveries    uint64 // checkpoint-restore + replay passes
	Replayed      uint64 // records replayed across recoveries
	Committed     uint64 // records group-committed
	Kills         uint64 // injected crashes that fired (all kinds)
	Hash          uint64 // final state digest of the faulted run
	Golden        uint64 // final state digest of the crash-free run
	ArenaResets   uint64 // sweep-batch arena recycles (arena runs only)
	ArenaDiscards uint64 // crash-recovery arena discards (arena runs only)
}

func (r WALChaosReport) String() string {
	return fmt.Sprintf("wal-chaos %-16s seed=%-3d ops=%-5d retries=%-4d recoveries=%-3d replayed=%-5d committed=%-5d kills=%-3d equal=%v",
		r.Schedule, r.Seed, r.Ops, r.Retries, r.Recoveries, r.Replayed, r.Committed, r.Kills, r.Equal())
}

// Equal reports the golden equality: the faulted run converged to the
// crash-free state.
func (r WALChaosReport) Equal() bool { return r.Hash == r.Golden }

// walWorkloadValue derives the deterministic value each key converges to.
func walWorkloadValue(k uint64, seed int64) uint64 {
	return k*0x9E3779B97F4A7C15 + uint64(seed)
}

// runWALWorkload runs the seeded workload — sessions × opsPerSession logged
// upserts split across two single-structure domains — against a runtime with
// the WAL rooted at dir, retrying each operation until it commits. It
// returns the final state digest and the per-domain durability counters.
// With arena.Enabled the domains run per-worker batch arenas (the WAL's
// record staging draws from them) and the report carries the arena
// recycle/discard counters.
func runWALWorkload(dir string, rules []faultinject.Rule, seed int64, sessions, opsPerSession int, fsync wal.FsyncMode, arena core.ArenaConfig) (WALChaosReport, error) {
	rep := WALChaosReport{Seed: seed}
	m, err := topology.Restricted(1)
	if err != nil {
		return rep, err
	}
	t1, err1 := NewWALTree(kinds.BTree)
	t2, err2 := NewWALTree(kinds.BTree)
	if err := errors.Join(err1, err2); err != nil {
		return rep, err
	}
	cfg := core.Config{
		Machine: m,
		Domains: []core.DomainSpec{
			{Name: "w0", CPUs: topology.Range(0, 4), RestartBudget: 1 << 20},
			{Name: "w1", CPUs: topology.Range(4, 8), RestartBudget: 1 << 20},
		},
		Assignment: map[string]int{"wtree": 0, "wtree2": 1},
		Faults:     &metrics.FaultCounters{},
		WAL:        core.WALConfig{Dir: dir, Fsync: fsync},
		Arena:      arena,
	}
	var observer *obs.Observer
	if arena.Enabled {
		observer = obs.New(obs.Options{})
		cfg.Obs = observer
	}
	if len(rules) > 0 {
		cfg.FaultHook = faultinject.New(seed, rules...)
	}
	rt, err := core.Start(cfg, map[string]any{"wtree": t1, "wtree2": t2})
	if err != nil {
		return rep, err
	}

	var ops, retries atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := rt.NewSession(g%m.LogicalCPUs(), 4)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			defer s.Close()
			structure := "wtree"
			if g%2 == 1 {
				structure = "wtree2"
			}
			tree := t1
			if g%2 == 1 {
				tree = t2
			}
			for i := 0; i < opsPerSession; i++ {
				k := uint64(g*opsPerSession + i)
				v := walWorkloadValue(k, seed)
				task := core.Task{
					Structure: structure,
					Op:        func(any) any { tree.Set(k, v); return k },
					Log:       func(dst []byte) []byte { return AppendWALSet(dst, k, v) },
				}
				// Retry until the record commits: a nil Invoke error means
				// durable; a typed error means the batch crashed before its
				// commit and the effect was (or will be) wiped by recovery.
				committed := false
				for attempt := 0; attempt < 1000; attempt++ {
					if _, err := s.Invoke(task); err == nil {
						committed = true
						break
					}
					retries.Add(1)
				}
				if !committed {
					firstErr.CompareAndSwap(nil, fmt.Errorf("harness: op on key %d never committed", k))
					return
				}
				ops.Add(1)
			}
		}(g)
	}
	wg.Wait()
	rt.Stop()

	if e := firstErr.Load(); e != nil {
		return rep, e.(error)
	}
	rep.Ops = int(ops.Load())
	rep.Retries = int(retries.Load())
	for _, d := range rt.Domains() {
		st := d.WALStats()
		rep.Recoveries += st.Recoveries
		rep.Replayed += st.Replayed
		rep.Committed += st.Committed
	}
	if cfg.FaultHook != nil {
		for _, n := range cfg.FaultHook.(*faultinject.Injector).Counts() {
			rep.Kills += n
		}
	}
	if observer != nil {
		for _, d := range observer.Snapshot().Domains {
			rep.ArenaResets += uint64(d.ArenaResets)
			rep.ArenaDiscards += uint64(d.ArenaDiscards)
		}
	}
	h1, h2 := t1.Hash(), t2.Hash()
	rep.Hash = h1*31 + h2
	return rep, nil
}

// RunWALChaos executes the golden-equality check for one schedule: the
// seeded workload runs once crash-free and once under the schedule's
// injected crashes (both WAL-enabled, logs rooted under dir), and the
// report carries both final-state digests. Equal() failing means recovery
// lost or invented state.
func RunWALChaos(dir string, sched ChaosSchedule, seed int64, sessions, opsPerSession int, fsync wal.FsyncMode) (WALChaosReport, error) {
	return runWALChaos(dir, sched, seed, sessions, opsPerSession, fsync, core.ArenaConfig{})
}

// RunWALChaosArena is RunWALChaos with per-worker batch arenas enabled in
// both the golden and the faulted run: WAL record staging draws from arena
// memory recycled at sweep-batch boundaries, checkpoints reset the arenas
// under the gate, and crash recovery discards the crashed worker's arena
// before replay. Equal() failing here means recycled arena memory leaked
// into (or was torn out of) the durable state.
func RunWALChaosArena(dir string, sched ChaosSchedule, seed int64, sessions, opsPerSession int, fsync wal.FsyncMode) (WALChaosReport, error) {
	return runWALChaos(dir, sched, seed, sessions, opsPerSession, fsync, core.ArenaConfig{Enabled: true})
}

func runWALChaos(dir string, sched ChaosSchedule, seed int64, sessions, opsPerSession int, fsync wal.FsyncMode, arena core.ArenaConfig) (WALChaosReport, error) {
	golden, err := runWALWorkload(dir+"/golden", nil, seed, sessions, opsPerSession, fsync, arena)
	if err != nil {
		return golden, err
	}
	rep, err := runWALWorkload(dir+"/faulted", sched.Rules, seed, sessions, opsPerSession, fsync, arena)
	if err != nil {
		return rep, err
	}
	rep.Schedule = sched.Name
	rep.Golden = golden.Hash
	return rep, nil
}
