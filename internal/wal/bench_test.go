package wal

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// BenchmarkWALGroupCommit prices one durable group commit in isolation, the
// component under tpcc.wal: one committing goroutine per domain, each
// commit a batch of four 92-byte records (416 B framed) under FsyncBatch,
// and a 16 KiB checkpoint every 200 ms per domain. ns/op is wall time per
// commit over all domains.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, domains := range []int{1, 2} {
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			doms := make([]*DomainLog, domains)
			for i := range doms {
				d, err := OpenDomain(b.TempDir(), 1, FsyncBatch)
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				doms[i] = d
			}
			rec := make([]byte, 92)
			enc := func(dst []byte) []byte { return append(dst, rec...) }
			snap := make([]byte, 16<<10)
			stop := make(chan struct{})
			var ckpts sync.WaitGroup
			for _, d := range doms {
				ckpts.Add(1)
				go func(d *DomainLog) {
					defer ckpts.Done()
					t := time.NewTicker(200 * time.Millisecond)
					defer t.Stop()
					for {
						select {
						case <-stop:
							return
						case <-t.C:
							if err := d.Checkpoint(func(w io.Writer) error { return WriteFrame(w, snap) }); err != nil {
								b.Error(err)
							}
						}
					}
				}(d)
			}
			b.ResetTimer()
			var workers sync.WaitGroup
			for i, d := range doms {
				n := b.N / domains
				if i == 0 {
					n += b.N % domains
				}
				workers.Add(1)
				go func(l *WorkerLog, n int) {
					defer workers.Done()
					for j := 0; j < n; j++ {
						l.Begin()
						for r := 0; r < 4; r++ {
							l.StageRecord(enc)
						}
						if err := l.Commit(false); err != nil {
							b.Error(err)
							return
						}
					}
				}(d.Worker(0), n)
			}
			workers.Wait()
			b.StopTimer()
			close(stop)
			ckpts.Wait()
		})
	}
}
