package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/core"
)

// sessionPool is the bounded set of delegation sessions every connection
// multiplexes onto. Sessions pre-reserve burst slots in each domain they
// touch, so the pool size — not the connection count — is what consumes
// buffer capacity: N connections share M sessions, and admission control
// happens here, by lease. A core.Session is single-threaded by contract;
// the pool's lease hand-off is the synchronisation that lets connection
// goroutines take turns with one.
//
// Free sessions are kept as a LIFO stack, not a FIFO queue: under light
// load successive leases reuse the most recently released session, whose
// owning worker is still in its spin phase and whose buffer is cache-hot.
// A FIFO rotation instead spreads shallow traffic across every session,
// paying a cold worker wake-up (up to the idle-sleep backoff cap) on
// nearly every lease. The tokens channel carries one token per free
// session so acquire can still block with a deadline.
type sessionPool struct {
	mu    sync.Mutex
	stack []*core.Session
	toks  chan struct{}
	all   []*core.Session

	closed atomic.Bool

	// waits/timeouts count lease contention for the obs counters.
	waits    atomic.Uint64
	timeouts atomic.Uint64
}

// newSessionPool opens n sessions on the runtime, spreading their NUMA
// anchors round-robin over the machine's CPUs.
func newSessionPool(rt *core.Runtime, n, burst int) (*sessionPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("server: session pool needs at least 1 session")
	}
	p := &sessionPool{toks: make(chan struct{}, n)}
	cpus := rt.Config().Machine.LogicalCPUs()
	for i := 0; i < n; i++ {
		s, err := rt.NewSession(i%cpus, burst)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("server: session %d: %w", i, err)
		}
		p.all = append(p.all, s)
		p.stack = append(p.stack, s)
		p.toks <- struct{}{}
	}
	return p, nil
}

// pop takes the hottest free session. Callers must hold a token.
func (p *sessionPool) pop() *core.Session {
	p.mu.Lock()
	s := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.mu.Unlock()
	return s
}

// acquire leases a session, blocking up to timeout when the pool is empty
// (the block-with-deadline half of backpressure; the typed BUSY reply is
// the caller's). Returns nil when the deadline passes or the pool closed.
func (p *sessionPool) acquire(timeout time.Duration) *core.Session {
	select {
	case <-p.toks:
		return p.pop()
	default:
	}
	p.waits.Add(1)
	if timeout <= 0 {
		select {
		case <-p.toks:
			return p.pop()
		default:
			p.timeouts.Add(1)
			return nil
		}
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.toks:
		return p.pop()
	case <-t.C:
		p.timeouts.Add(1)
		return nil
	}
}

// release returns a leased session to the top of the stack. After Close
// the session is dropped on the floor (Close already tore every session
// down).
func (p *sessionPool) release(s *core.Session) {
	if p.closed.Load() {
		return
	}
	p.mu.Lock()
	p.stack = append(p.stack, s)
	p.mu.Unlock()
	select {
	case p.toks <- struct{}{}:
	default:
		// Impossible by construction (every release pairs an acquire), but
		// never block a connection goroutine on pool accounting.
	}
}

// Close tears down every pooled session, draining their outstanding
// pipelined ops. Leased sessions are closed too — callers must have
// finished their batches (the server drains connections first).
func (p *sessionPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for _, s := range p.all {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// tenantQuotas caps in-flight ops per tenant. The map is append-only under
// the mutex (a tenant registers once, on its first HELLO or first op); the
// per-tenant counters are atomics so the per-batch reserve/release on the
// hot path never takes the lock.
type tenantQuotas struct {
	limit int64 // 0 = unlimited

	mu      sync.Mutex
	tenants map[string]*tenantState
	def     tenantState
}

// tenantState is one tenant's admission counters.
type tenantState struct {
	inflight atomic.Int64
	rejects  atomic.Uint64
}

func newTenantQuotas(limit int) *tenantQuotas {
	return &tenantQuotas{limit: int64(limit), tenants: map[string]*tenantState{}}
}

// state resolves (registering on first sight) a tenant's counters. The
// empty name is the default tenant, kept out of the map so anonymous
// connections never allocate a key.
func (q *tenantQuotas) state(tenant string) *tenantState {
	if tenant == "" {
		return &q.def
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	st, ok := q.tenants[tenant]
	if !ok {
		st = &tenantState{}
		q.tenants[tenant] = st
	}
	return st
}

// reserve admits n ops for the tenant, or rejects the whole batch when the
// quota would be exceeded — per-batch all-or-nothing keeps pipelined FIFO
// replies simple (one batch, one admission decision).
func (q *tenantQuotas) reserve(st *tenantState, n int) bool {
	if q.limit <= 0 {
		return true
	}
	if st.inflight.Add(int64(n)) > q.limit {
		st.inflight.Add(int64(-n))
		st.rejects.Add(1)
		return false
	}
	return true
}

// releaseOps returns a reservation made by reserve.
func (q *tenantQuotas) releaseOps(st *tenantState, n int) {
	if q.limit <= 0 {
		return
	}
	st.inflight.Add(int64(-n))
}

// rejects sums quota rejections across every tenant.
func (q *tenantQuotas) rejects() uint64 {
	total := q.def.rejects.Load()
	q.mu.Lock()
	for _, st := range q.tenants {
		total += st.rejects.Load()
	}
	q.mu.Unlock()
	return total
}
