// Package faultinject provides a deterministic, seeded fault injector for
// the delegation runtime. It implements delegation.FaultHook: hooked into a
// worker's poll loop it can panic tasks, kill or stall workers, and delay
// sweeps, each triggered by a probability draw from a seeded source or by a
// deterministic every-nth-opportunity counter. The hook is nil by default
// in the runtime, so production hot paths pay nothing; the chaos harness
// (internal/harness) wires an Injector in to assert that every submitted
// future completes — with a value or a typed error — under every fault
// schedule.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// TaskPanic panics inside the task-execution recovery scope: the
	// delegated task appears to have panicked, yielding a PanicError on
	// its future while the worker survives.
	TaskPanic Kind = iota
	// WorkerKill panics outside the recovery scope, before the sweep
	// touches any slot: the worker goroutine crashes as if a bug escaped
	// the protocol, exercising crash fail-over and supervisor respawn.
	WorkerKill
	// WorkerStall blocks the worker for Rule.Stall before a sweep,
	// simulating a descheduled or wedged worker that later recovers.
	WorkerStall
	// SweepDelay sleeps briefly (Rule.Stall) before a sweep — a milder
	// stall that stretches the response-batching window.
	SweepDelay
	// WALKillCommit kills the worker inside the WAL group commit, after the
	// sweep staged its records but before they reach the segment: the crash
	// loses the whole batch, and recovery must serve the pre-batch state
	// while clients see the batch fail with a typed error.
	WALKillCommit
	// WALTornTail writes a truncated final frame to the segment and then
	// kills the worker, simulating a crash mid-append: replay must detect
	// the torn frame, drop it, and zero the segment from there.
	WALTornTail
	numKinds
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case TaskPanic:
		return "task-panic"
	case WorkerKill:
		return "worker-kill"
	case WorkerStall:
		return "worker-stall"
	case SweepDelay:
		return "sweep-delay"
	case WALKillCommit:
		return "wal-kill-commit"
	case WALTornTail:
		return "wal-torn-tail"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Killed is the panic value a WorkerKill raises; supervisors see it as the
// PanicError's Value.
type Killed struct {
	Worker int
}

func (k Killed) String() string {
	return fmt.Sprintf("faultinject: worker %d killed", k.Worker)
}

// Rule arms one fault. A rule triggers at an opportunity (a sweep for
// worker-level kinds, a task execution for TaskPanic) when its
// deterministic counter or its probability draw fires.
type Rule struct {
	Kind   Kind
	Worker int // restrict to this worker id; -1 matches any worker

	// Probability triggers the fault on each opportunity with this chance,
	// drawn from the injector's seeded source (0 disables the draw).
	Probability float64
	// EveryNth triggers the fault deterministically on every nth
	// opportunity seen by this rule (0 disables the counter).
	EveryNth uint64
	// Once disarms the rule after its first trigger.
	Once bool

	// Stall is the sleep duration for WorkerStall and SweepDelay.
	Stall time.Duration
}

// ruleState pairs a rule with its opportunity counter.
type ruleState struct {
	Rule
	seen  atomic.Uint64
	fired atomic.Uint64
}

// Injector is a seeded fault source. It is safe for concurrent use by all
// workers of a runtime; determinism holds for the *decisions* (which
// opportunity fires, given a serialisation of the draws), not for wall-clock
// interleavings.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState

	triggered [numKinds]atomic.Uint64
}

// New builds an injector drawing from a source seeded with seed.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// Triggered returns how many times faults of kind k have fired.
func (in *Injector) Triggered(k Kind) uint64 {
	if k < 0 || k >= numKinds {
		return 0
	}
	return in.triggered[k].Load()
}

// Counts snapshots the per-kind trigger counters.
func (in *Injector) Counts() map[string]uint64 {
	out := map[string]uint64{}
	for k := Kind(0); k < numKinds; k++ {
		if n := in.triggered[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// decide reports whether rule r fires at this opportunity.
func (in *Injector) decide(r *ruleState, worker int) bool {
	if r.Worker >= 0 && r.Worker != worker {
		return false
	}
	if r.Once && r.fired.Load() > 0 {
		return false
	}
	seen := r.seen.Add(1)
	hit := false
	if r.EveryNth > 0 && seen%r.EveryNth == 0 {
		hit = true
	}
	if !hit && r.Probability > 0 {
		in.mu.Lock()
		hit = in.rng.Float64() < r.Probability
		in.mu.Unlock()
	}
	if hit {
		if r.Once && !r.fired.CompareAndSwap(0, 1) {
			return false // another worker won the only shot
		}
		if !r.Once {
			r.fired.Add(1)
		}
		in.triggered[r.Kind].Add(1)
	}
	return hit
}

// BeforeSweep implements delegation.FaultHook: worker-level faults. A
// WorkerKill panics with a Killed value, escaping the sweep into the
// worker's crash recovery; stalls and delays sleep in place.
func (in *Injector) BeforeSweep(worker int) {
	for _, r := range in.rules {
		switch r.Kind {
		case WorkerKill:
			if in.decide(r, worker) {
				panic(Killed{Worker: worker})
			}
		case WorkerStall, SweepDelay:
			if in.decide(r, worker) {
				d := r.Stall
				if d <= 0 {
					d = time.Millisecond
				}
				time.Sleep(d)
			}
		}
	}
}

// DecideWALFault is the commit-fault hook the core runtime bridges into the
// WAL layer (wal.CommitHook): called once per group commit, it returns 0
// (no fault), 1 (kill before the append) or 2 (torn tail), matching
// wal.CommitNone/CommitKill/CommitTear. Plain ints keep the packages
// decoupled; the first armed WAL rule that fires wins.
func (in *Injector) DecideWALFault(worker int) int {
	for _, r := range in.rules {
		switch r.Kind {
		case WALKillCommit:
			if in.decide(r, worker) {
				return 1
			}
		case WALTornTail:
			if in.decide(r, worker) {
				return 2
			}
		}
	}
	return 0
}

// BeforeTask implements delegation.FaultHook: task-level faults. A
// TaskPanic panics inside the task recovery scope, so the delegated task's
// future completes with a PanicError and the worker survives.
func (in *Injector) BeforeTask(worker int) {
	for _, r := range in.rules {
		if r.Kind != TaskPanic {
			continue
		}
		if in.decide(r, worker) {
			panic(fmt.Sprintf("faultinject: task panic on worker %d", worker))
		}
	}
}
