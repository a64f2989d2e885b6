package htm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf/internal/syncprims"
)

func TestAtomicCommitsSimpleWrite(t *testing.T) {
	r := NewRegion()
	var cell syncprims.VersionLock
	value := 0
	err := r.Atomic(func(tx *Tx) error {
		return tx.Write(&cell, func() { value = 42 })
	})
	if err != nil {
		t.Fatal(err)
	}
	if value != 42 {
		t.Errorf("value = %d, want 42", value)
	}
	if r.Stats.Commits.Load() != 1 {
		t.Errorf("commits = %d, want 1", r.Stats.Commits.Load())
	}
	if r.Stats.Aborts.Load() != 0 || r.Stats.Fallbacks.Load() != 0 {
		t.Errorf("unexpected aborts/fallbacks: %d/%d", r.Stats.Aborts.Load(), r.Stats.Fallbacks.Load())
	}
}

func TestWritesDeferredUntilCommit(t *testing.T) {
	r := NewRegion()
	var cell syncprims.VersionLock
	value := 0
	_ = r.Atomic(func(tx *Tx) error {
		if err := tx.Write(&cell, func() { value++ }); err != nil {
			return err
		}
		if value != 0 {
			t.Error("write applied before commit")
		}
		return nil
	})
	if value != 1 {
		t.Errorf("value = %d, want 1 after commit", value)
	}
}

func TestReadValidation(t *testing.T) {
	r := NewRegion()
	var cell syncprims.VersionLock
	data := 10
	err := r.Atomic(func(tx *Tx) error {
		if err := tx.Read(&cell); err != nil {
			return err
		}
		_ = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Commits.Load() != 1 {
		t.Error("read-only tx should commit")
	}
}

func TestReadOfLockedCellAborts(t *testing.T) {
	r := NewRegionLimits(0, 16) // no retries → immediate fallback
	var cell syncprims.VersionLock
	cell.WriteLock()
	// The single transactional attempt must abort (cell write-locked); the
	// fallback path does not validate the cell, so Atomic completes via the
	// global lock even while the cell stays locked.
	err := r.Atomic(func(tx *Tx) error {
		if err := tx.Read(&cell); err != nil {
			return err
		}
		return nil
	})
	cell.WriteUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Fallbacks.Load() != 1 {
		t.Errorf("fallbacks = %d, want 1", r.Stats.Fallbacks.Load())
	}
	if r.Stats.Aborts.Load() == 0 {
		t.Error("expected at least one abort")
	}
}

func TestExplicitAbortFallsBack(t *testing.T) {
	r := NewRegionLimits(2, 16)
	attempts := 0
	err := r.Atomic(func(tx *Tx) error {
		attempts++
		if !tx.Fallback() {
			return tx.Abort()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// maxRetries=2 → 3 transactional attempts + 1 fallback execution.
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4", attempts)
	}
	if r.Stats.Fallbacks.Load() != 1 {
		t.Errorf("fallbacks = %d, want 1", r.Stats.Fallbacks.Load())
	}
	if r.Stats.Aborts.Load() != 3 {
		t.Errorf("aborts = %d, want 3", r.Stats.Aborts.Load())
	}
}

func TestCapacityAbort(t *testing.T) {
	r := NewRegionLimits(0, 4)
	cells := make([]syncprims.VersionLock, 10)
	fallbackUsed := false
	err := r.Atomic(func(tx *Tx) error {
		if tx.Fallback() {
			fallbackUsed = true
			return nil
		}
		for i := range cells {
			if err := tx.Read(&cells[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fallbackUsed {
		t.Error("oversized tx should fall back")
	}
}

func TestNonAbortErrorPropagates(t *testing.T) {
	r := NewRegion()
	sentinel := errors.New("boom")
	err := r.Atomic(func(tx *Tx) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	if r.Stats.Commits.Load() != 0 {
		t.Error("errored body must not commit")
	}
}

func TestConcurrentCounterNoLostUpdates(t *testing.T) {
	r := NewRegion()
	var cell syncprims.VersionLock
	// The cell's payload. A transaction reads it speculatively, before its
	// commit validates the cell's version, so the read can overlap another
	// committer's apply; the STM discards such a snapshot, but under the Go
	// memory model the overlap is still a race unless the payload is atomic.
	var counter atomic.Int64
	var wg sync.WaitGroup
	const goroutines, perG = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := r.Atomic(func(tx *Tx) error {
					if err := tx.Read(&cell); err != nil {
						return err
					}
					cur := counter.Load()
					return tx.Write(&cell, func() { counter.Store(cur + 1) })
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := counter.Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d (lost updates)", got, goroutines*perG)
	}
}

func TestConcurrentDisjointWritesCommitTransactionally(t *testing.T) {
	r := NewRegion()
	const n = 8
	cells := make([]syncprims.VersionLock, n)
	values := make([]int, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				err := r.Atomic(func(tx *Tx) error {
					return tx.Write(&cells[slot], func() { values[slot]++ })
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i, v := range values {
		if v != 1000 {
			t.Errorf("values[%d] = %d, want 1000", i, v)
		}
	}
	// Disjoint cells should mostly commit without fallback.
	if fb := r.Stats.Fallbacks.Load(); fb > 100 {
		t.Errorf("fallbacks = %d, disjoint writes should rarely fall back", fb)
	}
}

func TestAbortRatioHelper(t *testing.T) {
	var s Stats
	if s.AbortRatio() != 0 {
		t.Error("empty stats AbortRatio should be 0")
	}
	s.Commits.Store(75)
	s.Aborts.Store(25)
	if got := s.AbortRatio(); got != 0.25 {
		t.Errorf("AbortRatio = %v, want 0.25", got)
	}
}

func TestModelMonotonicity(t *testing.T) {
	m := DefaultModel()
	// More threads → more aborts.
	prev := -1.0
	for _, threads := range []int{1, 2, 12, 24, 48, 96} {
		p := m.AbortProbability(threads, 0.5, 0)
		if p < prev {
			t.Errorf("AbortProbability not monotone in threads at %d: %v < %v", threads, p, prev)
		}
		prev = p
	}
	// Higher write fraction → more aborts.
	if m.AbortProbability(48, 0.05, 0) >= m.AbortProbability(48, 0.5, 0) {
		t.Error("abort probability should grow with write fraction")
	}
	// Larger NUMA span → more aborts.
	if m.AbortProbability(48, 0.5, 0) >= m.AbortProbability(48, 0.5, 3) {
		t.Error("abort probability should grow with NUMA span")
	}
	// Single thread never aborts.
	if m.AbortProbability(1, 1.0, 3) != 0 {
		t.Error("single thread must not abort")
	}
}

func TestModelMatchesPaperShape(t *testing.T) {
	m := DefaultModel()
	// Paper: at 24 writers on one socket (read-update) HTM still performs;
	// shared-everything across 8 sockets collapses (abort ratio → ~60-80%).
	within := m.AbortRatio(24, 0.5, 0)
	if within > 0.5 {
		t.Errorf("abort ratio at 24 threads/1 socket = %v, want moderate (<0.5)", within)
	}
	across := m.AbortRatio(384, 0.5, 3)
	if across < 0.5 {
		t.Errorf("abort ratio at 384 threads across NUMAlink = %v, want severe (>0.5)", across)
	}
	// Fallback probability must approach 1 in the collapsed regime.
	if fb := m.FallbackProbability(384, 0.5, 3); fb < 0.3 {
		t.Errorf("fallback probability at full SE = %v, want high", fb)
	}
	if fb := m.FallbackProbability(24, 0.5, 0); fb > 0.05 {
		t.Errorf("fallback probability at 24/local = %v, want tiny", fb)
	}
}

func TestExpectedAttemptsBounds(t *testing.T) {
	m := DefaultModel()
	if got := m.ExpectedAttempts(1, 0.5, 0); got != 1 {
		t.Errorf("single-thread ExpectedAttempts = %v, want 1", got)
	}
	got := m.ExpectedAttempts(384, 0.5, 3)
	if got < 1 || got > float64(m.MaxRetries)+1 {
		t.Errorf("ExpectedAttempts = %v out of [1, %d]", got, m.MaxRetries+1)
	}
}
