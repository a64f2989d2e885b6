package delegation

import (
	"sync"
	"syscall"
	"testing"
	"time"
)

// cpuNs returns this process's user+system CPU time in nanoseconds.
func cpuNs(b *testing.B) int64 {
	b.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Skipf("getrusage: %v", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// BenchmarkIdleWait measures the CPU cost of waiting on futures that
// complete only after a genuinely idle period (200µs — far past the spin
// phase). The cpu-ns/op metric is the point: the spin-then-sleep backoff in
// Future.block keeps it orders of magnitude below the wall time per op,
// where a pure Gosched spin would burn a full core for the duration.
func BenchmarkIdleWait(b *testing.B) {
	const idle = 200 * time.Microsecond
	futs := make(chan *Future, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range futs {
			time.Sleep(idle)
			f.complete(nil)
		}
	}()

	b.ResetTimer()
	startCPU := cpuNs(b)
	for i := 0; i < b.N; i++ {
		f := &Future{}
		futs <- f
		f.Wait()
	}
	cpu := cpuNs(b) - startCPU
	b.StopTimer()
	close(futs)
	wg.Wait()
	b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
}

// BenchmarkIdleWorker measures what an idle worker costs: one worker polls a
// buffer nobody posts to while the benchmark sleeps b.N wall milliseconds.
// cpu-ns/wall-ms is the process's CPU time per wall millisecond — the
// worker's idle policy (yields, then sleeps up to ~100µs) plus the runtime's
// own background work; a worker that never slept would read ~1e6.
func BenchmarkIdleWorker(b *testing.B) {
	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewWorker(buf).Run(stop)
	}()
	time.Sleep(10 * time.Millisecond) // past the spin phase

	b.ResetTimer()
	start, startCPU := time.Now(), cpuNs(b)
	for i := 0; i < b.N; i++ {
		time.Sleep(time.Millisecond)
	}
	cpu, wall := cpuNs(b)-startCPU, time.Since(start)
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(cpu)/(float64(wall)/float64(time.Millisecond)), "cpu-ns/wall-ms")
}

// BenchmarkBusyWait is the contrast case: the future completes almost
// immediately, so waits resolve inside the spin phase and the backoff adds
// no latency — delegation throughput (see BenchmarkDelegationInvoke at the
// repo root) is untouched by the idle backoff.
func BenchmarkBusyWait(b *testing.B) {
	futs := make(chan *Future, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range futs {
			f.complete(nil)
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &Future{}
		futs <- f
		f.Wait()
	}
	b.StopTimer()
	close(futs)
	wg.Wait()
}
