package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"robustconf"
	"robustconf/internal/delegation"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/mem"
	"robustconf/internal/oltp"
	"robustconf/internal/server"
	"robustconf/internal/server/proto"
	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

// A probe times one layer's public functions in isolation, with nothing
// else of the system running. probeFor is how long each one loops; the
// numbers are means over that stretch.
const probeFor = 250 * time.Millisecond

// timeLoop calls step (which does n ops per call) until d has passed and
// returns the mean nanoseconds per op. The clock is read every 64 calls.
func timeLoop(d time.Duration, n int, step func()) float64 {
	start := nanos()
	deadline := start + int64(d)
	calls := 0
	for now := start; now < deadline; now = nanos() {
		for i := 0; i < 64; i++ {
			step()
		}
		calls += 64
	}
	return float64(nanos()-start) / float64(calls*n)
}

// stubKernel is the batch kernel that returns at once: what is left of a
// typed op's round trip when the index costs nothing.
type stubKernel struct{}

func (stubKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	for i := range outOKs {
		outOKs[i] = true
	}
}

// probeDelegationNoop times post → sweep → answer → await per op at the
// delegation layer alone: one buffer, one live worker, a client holding
// `burst` slots, the stub kernel.
func probeDelegationNoop(burst int) (float64, error) {
	buf, err := delegation.NewBuffer(0, delegation.SlotsPerBuffer)
	if err != nil {
		return 0, err
	}
	buf.SetBatchExec(batchWidth)
	inbox, err := delegation.NewInbox([]*delegation.Buffer{buf})
	if err != nil {
		return 0, err
	}
	slots, err := inbox.AcquireSlots(burst, nil)
	if err != nil {
		return 0, err
	}
	c, err := delegation.NewClient(slots)
	if err != nil {
		return 0, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		delegation.NewWorker(buf).Run(stop)
	}()
	handles := make([]delegation.InvokeHandle, burst)
	var probeErr error
	ns := timeLoop(probeFor, burst, func() {
		for j := range handles {
			slot, ok := c.Reserve()
			if !ok {
				probeErr = fmt.Errorf("delegation probe: no free slot")
				return
			}
			handles[j] = c.PostReservedKV(slot, stubKernel{}, delegation.KVGet, uint64(j), 0)
		}
		for _, h := range handles {
			if _, _, err := c.AwaitKV(h); err != nil {
				probeErr = err
			}
		}
	})
	close(stop)
	<-done
	return ns, probeErr
}

// probeCoreNoop is the same round trip one layer further out: a runtime, a
// session, SubmitKV/WaitKV windows of 14, the stub kernel. What it costs
// beyond probeDelegationNoop is the core layer's own work (name lookup,
// future pooling).
func probeCoreNoop() (float64, error) {
	rt, err := robustconf.Start(oneWorkerConfig(kvStructure), map[string]any{kvStructure: stubKernel{}})
	if err != nil {
		return 0, err
	}
	defer rt.Stop()
	return probeSessionKV(rt, func(uint64) string { return kvStructure }, 1<<20)
}

// probeSessionKV times in-process GET windows of 14 against whatever
// structures the runtime holds; shardOf names the structure for a key.
func probeSessionKV(rt *robustconf.Runtime, shardOf func(key uint64) string, records uint64) (float64, error) {
	sess, err := rt.NewSession(1, kvBurst)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	stream := newOpStream(1, 7, records, 0)
	var futs [kvBurst]*robustconf.AsyncFuture
	var probeErr error
	ns := timeLoop(probeFor, kvBurst, func() {
		for j := range futs {
			_, key := stream.next()
			if futs[j], err = sess.SubmitKV(shardOf(key), opGet, key, 0); err != nil {
				probeErr = err
				return
			}
		}
		for _, f := range futs {
			if _, _, err := f.WaitKV(); err != nil {
				probeErr = err
			}
		}
	})
	return ns, probeErr
}

// probeIndex times an index on its own goroutine: serial Get, and the batch
// kernel at the sweep's width with the workload's read/write mix. Keys are
// uniform over 1..records; the index must hold exactly those.
func probeIndex(idx index.Index, records, writePermille uint64) (getNs, batchNs float64) {
	stream := newOpStream(1, 8, records, writePermille)
	var sink uint64
	getNs = timeLoop(probeFor, 1, func() {
		_, key := stream.next()
		v, _ := idx.Get(key, nil)
		sink += v
	})
	kern := idx.(index.BatchKernel)
	var kinds [batchWidth]uint8
	var keys, vals, outVals [batchWidth]uint64
	var outOKs [batchWidth]bool
	batchNs = timeLoop(probeFor, batchWidth, func() {
		for j := range keys {
			kinds[j], keys[j] = stream.next()
			vals[j] = mix64(keys[j])
		}
		kern.ExecBatch(kinds[:], keys[:], vals[:], outVals[:], outOKs[:])
	})
	_ = sink
	return getNs, batchNs
}

// indexBuilders are the four evaluated structures. The Hash Map is sized to
// its record count, as a deployment would size it.
var indexBuilders = []struct {
	name  string
	build func(records uint64) index.Index
}{
	{"btree", func(uint64) index.Index { return btree.New() }},
	{"hashmap", func(records uint64) index.Index {
		buckets := hashmap.DefaultBuckets
		for uint64(buckets) < records {
			buckets *= 2
		}
		return hashmap.NewBuckets(buckets)
	}},
	{"fptree", func(uint64) index.Index { return fptree.New() }},
	{"bwtree", func(uint64) index.Index { return bwtree.New() }},
}

func loadIndex(idx index.Index, records uint64) {
	for k := uint64(1); k <= records; k++ {
		idx.Insert(k, mix64(k), nil)
	}
}

// probeProtoCodec times one op's worth of wire encoding and decoding, both
// directions: request append, frame, decode; value response append, frame,
// decode.
func probeProtoCodec() (float64, error) {
	var buf []byte
	var req proto.Request
	var resp proto.Response
	var probeErr error
	key := uint64(0)
	ns := timeLoop(probeFor, 1, func() {
		key++
		buf = proto.AppendRequest(buf[:0], proto.Request{Op: proto.OpGet, Key: key})
		payload, _, ok, err := proto.Frame(buf)
		if err == nil && ok {
			err = proto.DecodeRequest(payload, &req)
		}
		if err != nil || !ok || req.Key != key {
			probeErr = fmt.Errorf("proto probe: request round trip: ok %v err %v", ok, err)
		}
		buf = proto.AppendValue(buf[:0], mix64(key))
		payload, _, ok, err = proto.Frame(buf)
		if err == nil && ok {
			err = proto.DecodeResponse(payload, &resp)
		}
		if err != nil || !ok || resp.Val != mix64(key) {
			probeErr = fmt.Errorf("proto probe: response round trip: ok %v err %v", ok, err)
		}
	})
	return ns, probeErr
}

func probeRouter(names []string) (float64, error) {
	router, err := server.NewRouter(names)
	if err != nil {
		return 0, err
	}
	stream := newOpStream(1, 9, netRecords, 0)
	n := 0
	ns := timeLoop(probeFor, 1, func() {
		_, key := stream.next()
		n += len(router.Lookup(key))
	})
	_ = n
	return ns, nil
}

// wireFrame is the size of a GET request frame and of a value response
// frame alike: a 4-byte length, a 1-byte op or status, 8 bytes of operand.
const wireFrame = 13

// probeTCPEcho times a bare loopback round trip carrying `depth` frames of
// the protocol's size each way, with no protocol and no runtime behind it:
// the floor the kernel's socket path sets under the network workload.
// It returns the mean nanoseconds per round trip.
func probeTCPEcho(depth int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer nc.Close()
		buf := make([]byte, depth*wireFrame)
		for {
			if _, err := io.ReadFull(nc, buf); err != nil {
				echoed <- nil // the client closed: done
				return
			}
			if _, err := nc.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	nc.(*net.TCPConn).SetNoDelay(true)
	buf := make([]byte, depth*wireFrame)
	var probeErr error
	start := nanos()
	trips := 0
	for deadline := start + int64(probeFor); nanos() < deadline && probeErr == nil; trips++ {
		if _, err := nc.Write(buf); err != nil {
			probeErr = err
		} else if _, err := io.ReadFull(nc, buf); err != nil {
			probeErr = err
		}
	}
	ns := float64(nanos()-start) / float64(trips)
	nc.Close()
	if err := <-echoed; err != nil && probeErr == nil {
		probeErr = err
	}
	return ns, probeErr
}

// probeDirectTPCC times the seeded full mix on the direct engine: the
// transactions' own work with no delegation under them. Microseconds per
// transaction.
func probeDirectTPCC(seed uint64) (float64, error) {
	direct, err := oltp.NewDirectEngine(tpccScale, newFPTree)
	if err != nil {
		return 0, err
	}
	if err := loadTPCC(direct, seed); err != nil {
		return 0, err
	}
	term, err := tpcc.NewTerminal(tpccScale, direct, 1, tpccRemote, terminalSeed(seed, 1))
	if err != nil {
		return 0, err
	}
	draw := newRNG(seed, 0)
	var probeErr error
	ns := timeLoop(probeFor, 1, func() {
		if err := runTxn(term, drawTxn(&draw)); err != nil {
			probeErr = err
		}
	})
	return ns / 1e3, probeErr
}

func probeArena() float64 {
	a := mem.New(mem.Options{})
	n := 0
	var sink byte
	ns := timeLoop(probeFor, 1, func() {
		b := a.Alloc(64)
		sink += b[0]
		if n++; n%64 == 0 {
			a.Reset()
		}
	})
	_ = sink
	return ns
}

// probeWALCommit times one group commit of eight 64-byte records: Begin,
// eight StageRecord calls, Commit. Microseconds per commit.
func probeWALCommit(dir string, mode wal.FsyncMode) (float64, error) {
	dom, err := wal.OpenDomain(dir, 1, mode)
	if err != nil {
		return 0, err
	}
	defer dom.Close()
	wl := dom.Worker(0)
	var record [64]byte
	enc := func(dst []byte) []byte { return append(dst, record[:]...) }
	var probeErr error
	start := nanos()
	commits := 0
	for deadline := start + int64(probeFor); nanos() < deadline && probeErr == nil; commits++ {
		wl.Begin()
		for i := 0; i < 8; i++ {
			wl.StageRecord(enc)
		}
		probeErr = wl.Commit(false)
	}
	return float64(nanos()-start) / float64(commits) / 1e3, probeErr
}
