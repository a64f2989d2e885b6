package delegation

import (
	"errors"
	"fmt"
	"testing"

	"robustconf/internal/obs"
)

// TestOnePostPath drives every op shape through both entry points of the one
// post path — Post/Await on the slot's embedded future and Delegate with a
// detached one — with the WAL off and on, into a live and into a sealed
// buffer. Each case checks the result, the typed error, the number of staged
// WAL records and the probe's post and read counts: reads are exactly the
// read-flagged closures and the typed GETs, whichever way they were posted.
// A typed op's value/found pair lives in its slot, so through Delegate it
// completes with a nil value.
func TestOnePostPath(t *testing.T) {
	type want struct {
		val    any    // closure result
		kvVal  uint64 // typed result
		kvOK   bool
		staged int // records staged when the WAL is on and the buffer live
		read   bool
	}
	shapes := []struct {
		name string
		op   func(k *mapKernel) *Op
		want want
	}{
		{"opaque", func(*mapKernel) *Op { return &Op{Task: func() any { return "v" }} }, want{val: "v"}},
		{"opaque+log", func(*mapKernel) *Op {
			return &Op{Task: func() any { return "logged" }, Log: rec("r")}
		}, want{val: "logged", staged: 1}},
		{"read", func(*mapKernel) *Op {
			return &Op{Task: func() any { return "read" }, Log: rec("never staged"), Read: true}
		}, want{val: "read", read: true}},
		{"typed get", func(k *mapKernel) *Op { return &Op{Kern: k, Kind: KVGet, Key: 1} }, want{kvVal: 10, kvOK: true, read: true}},
		{"typed insert", func(k *mapKernel) *Op { return &Op{Kern: k, Kind: KVInsert, Key: 2, Val: 20} }, want{kvOK: true}},
		{"typed update", func(k *mapKernel) *Op { return &Op{Kern: k, Kind: KVUpdate, Key: 1, Val: 11} }, want{kvOK: true}},
		{"typed delete", func(k *mapKernel) *Op { return &Op{Kern: k, Kind: KVDelete, Key: 1} }, want{kvOK: true}},
	}
	for _, sh := range shapes {
		for _, detached := range []bool{false, true} {
			for _, logged := range []bool{false, true} {
				for _, sealed := range []bool{false, true} {
					name := fmt.Sprintf("%s/detached=%v/wal=%v/sealed=%v", sh.name, detached, logged, sealed)
					t.Run(name, func(t *testing.T) {
						o := obs.New(obs.Options{SampleEvery: 1})
						d := o.Domain("dom", 1)
						buf, c := newBatchedClient(t)
						c.SetProbe(d.NewClient())
						w := &recordingWAL{}
						if logged {
							buf.SetWAL(w)
						}
						k := newMapKernel()
						k.m[1] = 10
						if sealed {
							buf.Seal()
						}

						op := sh.op(k)
						typed := op.Kern != nil
						var val any
						var kvVal uint64
						var kvOK bool
						var err error
						if detached {
							f := c.Delegate(reserve(c), op)
							buf.Sweep()
							val, err = f.Result()
						} else {
							h := c.Post(reserve(c), op)
							buf.Sweep()
							if typed {
								kvVal, kvOK, err = c.AwaitKV(h)
							} else {
								val, err = c.Await(h)
							}
						}

						wantStaged := 0
						if sealed {
							if !errors.Is(err, ErrWorkerStopped) {
								t.Fatalf("err = %v, want ErrWorkerStopped", err)
							}
						} else {
							if err != nil {
								t.Fatalf("err = %v", err)
							}
							if typed && detached {
								if val != nil {
									t.Fatalf("detached typed result = %v, want nil", val)
								}
							} else if typed {
								if kvVal != sh.want.kvVal || kvOK != sh.want.kvOK {
									t.Fatalf("typed result = %d,%v, want %d,%v", kvVal, kvOK, sh.want.kvVal, sh.want.kvOK)
								}
							} else if val != sh.want.val {
								t.Fatalf("result = %v, want %v", val, sh.want.val)
							}
							if logged {
								wantStaged = sh.want.staged
							}
						}
						if len(w.records) != wantStaged {
							t.Fatalf("staged %d records, want %d", len(w.records), wantStaged)
						}

						if err := c.Drain(); err != nil && !sealed {
							t.Fatalf("drain: %v", err)
						}
						snap := o.Snapshot().Domains[0]
						wantReads := uint64(0)
						if sh.want.read {
							wantReads = 1
						}
						if snap.Posts != 1 || snap.Reads != wantReads {
							t.Fatalf("probe posts/reads = %d/%d, want 1/%d", snap.Posts, snap.Reads, wantReads)
						}
						if len(c.free) != 14 {
							t.Fatalf("free slots after the round trip = %d, want 14", len(c.free))
						}
					})
				}
			}
		}
	}
}
