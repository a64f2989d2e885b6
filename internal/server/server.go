// Package server is the network front end of the delegation runtime: a TCP
// listener speaking the length-prefixed binary protocol of
// internal/server/proto, multiplexing N client connections onto M pooled
// delegation sessions (DESIGN.md §16).
//
// The design premise is that network batching should amplify kernel
// batching. Clients pipeline request frames; one conn.Read picks up
// everything a client flushed, the connection goroutine decodes the whole
// run into typed KV ops and submits them back-to-back through one pooled
// Session's SubmitKV — so one network read becomes one delegation burst
// whose adjacent same-kernel ops land together in the worker's batched
// sweep and execute through a single prefetch-overlapped ExecBatch call. Responses are strict FIFO, written as
// one frame run per batch, so no request ids ride the wire.
//
// Keys route to structure shards through a copy-on-write consistent-hash
// table (router.go) read with one atomic load; admission control is a
// bounded session pool with per-tenant in-flight quotas and
// block-with-deadline backpressure that degrades to typed BUSY replies
// (pool.go); the steady-state hot path is allocation-free — reused
// high-water-sized frame buffers, response encoding into retained scratch,
// and key/value operands that travel as three words from the read buffer
// into the slot-embedded typed op without ever being boxed.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/obs"
	"robustconf/internal/server/proto"
)

// Defaults for the tunable axes. DefaultMaxPipeline caps how many requests
// one batch may drain from the read buffer: large enough that a deep
// client pipeline amortises one syscall pair over many delegation slots,
// small enough to bound per-connection scratch and reply latency.
const (
	DefaultBurst          = 14 // the paper's bursting window
	DefaultMaxPipeline    = 128
	DefaultAcquireTimeout = 50 * time.Millisecond
	DefaultWriteTimeout   = 5 * time.Second
	readBufStart          = 4 << 10
)

// Config configures the front end.
type Config struct {
	// Runtime is the started delegation runtime the server fronts.
	Runtime *core.Runtime
	// Shards names the structure instances keys are routed over (all must
	// be registered on the runtime and implement delegation.BatchKernel).
	Shards []string
	// Sessions bounds the pool connections multiplex onto (≥1). Together
	// with Burst it must fit the runtime's slot capacity: every session may
	// reserve Burst slots in every domain.
	Sessions int
	// Burst is each pooled session's per-domain window (default
	// DefaultBurst, the paper's 14).
	Burst int
	// MaxPipeline caps ops decoded into one batch (default
	// DefaultMaxPipeline).
	MaxPipeline int
	// Stripe caps how many pooled sessions one batch may widen across
	// (default 1: a batch rides a single session's sliding burst window).
	// Each extra session adds a burst of in-flight slots, which helps when
	// domains span enough cores that extra workers sweep in parallel, and
	// hurts on small machines where every widened session drags another
	// worker into the scheduler mix.
	Stripe int
	// AcquireTimeout bounds how long a batch blocks waiting for a pooled
	// session before its KV ops are answered BUSY (default
	// DefaultAcquireTimeout; negative = fail fast).
	AcquireTimeout time.Duration
	// WriteTimeout bounds one response-run write; a slower reader has its
	// connection dropped (default DefaultWriteTimeout).
	WriteTimeout time.Duration
	// TenantOps caps in-flight ops per tenant (0 = no quotas). Tenants
	// self-identify with HELLO; connections that never do share one
	// default tenant.
	TenantOps int
	// Obs, when non-nil, receives the server counters (robustconf_server_*
	// on /metrics, windowed rates on /signals).
	Obs *obs.Observer
}

func (c *Config) withDefaults() error {
	if c.Runtime == nil {
		return fmt.Errorf("server: config has no runtime")
	}
	if len(c.Shards) == 0 {
		return fmt.Errorf("server: config has no shards")
	}
	if c.Sessions < 1 {
		return fmt.Errorf("server: session pool size %d < 1", c.Sessions)
	}
	if c.Burst == 0 {
		c.Burst = DefaultBurst
	}
	if c.Burst < 1 {
		return fmt.Errorf("server: burst %d < 1", c.Burst)
	}
	if c.MaxPipeline == 0 {
		c.MaxPipeline = DefaultMaxPipeline
	}
	if c.MaxPipeline < 1 {
		return fmt.Errorf("server: max pipeline %d < 1", c.MaxPipeline)
	}
	if c.Stripe == 0 {
		c.Stripe = 1
	}
	if c.Stripe < 1 {
		return fmt.Errorf("server: stripe %d < 1", c.Stripe)
	}
	if c.AcquireTimeout == 0 {
		c.AcquireTimeout = DefaultAcquireTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	return nil
}

// Server is a running front end. Construct with Listen.
type Server struct {
	cfg    Config
	ln     net.Listener
	router *Router
	pool   *sessionPool
	quotas *tenantQuotas

	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error

	mu    sync.Mutex
	conns map[*conn]struct{}
	wg    sync.WaitGroup

	// Counters behind Stats(); all monotonic except the active gauge.
	connsAccepted atomic.Uint64
	connsActive   atomic.Int64
	ops           atomic.Uint64
	batches       atomic.Uint64
	protoErrors   atomic.Uint64
	writeTimeouts atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	pipelineMax   atomic.Int64

	// Read buffers are pooled and sized by the high-water mark of what any
	// connection ever needed — the internal/mem arena discipline applied to
	// connection churn: a reconnecting client inherits a right-sized buffer
	// instead of re-growing from scratch.
	bufHW   atomic.Int64
	bufPool sync.Pool
}

// Listen validates cfg, binds addr (":0" picks a free port) and starts the
// accept loop. The returned server runs until Close.
func Listen(addr string, cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	structures := cfg.Runtime.Config().Assignment
	for _, name := range cfg.Shards {
		if _, ok := structures[name]; !ok {
			return nil, fmt.Errorf("server: shard %q is not registered on the runtime", name)
		}
	}
	router, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	pool, err := newSessionPool(cfg.Runtime, cfg.Sessions, cfg.Burst)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		pool.Close()
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		router: router,
		pool:   pool,
		quotas: newTenantQuotas(cfg.TenantOps),
		conns:  map[*conn]struct{}{},
	}
	s.bufHW.Store(readBufStart)
	s.bufPool.New = func() any {
		b := make([]byte, s.bufHW.Load())
		return &b
	}
	if cfg.Obs != nil {
		cfg.Obs.SetServerStats(s.Stats)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Router exposes the routing table (the re-planner rebuilds it on a new
// placement; reads stay lock-free throughout).
func (s *Server) Router() *Router { return s.router }

// Stats snapshots the server counters for the obs layer.
func (s *Server) Stats() obs.ServerStats {
	return obs.ServerStats{
		ConnsAccepted: s.connsAccepted.Load(),
		ConnsActive:   s.connsActive.Load(),
		Ops:           s.ops.Load(),
		Batches:       s.batches.Load(),
		QuotaRejects:  s.quotas.rejects(),
		BusyRejects:   s.pool.timeouts.Load(),
		PoolWaits:     s.pool.waits.Load(),
		ProtoErrors:   s.protoErrors.Load(),
		WriteTimeouts: s.writeTimeouts.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		PipelineMax:   s.pipelineMax.Load(),
		Sessions:      int64(s.cfg.Sessions),
		Draining:      s.draining.Load(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal; either way stop accepting
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true) // response runs are batched writes already
		}
		s.connsAccepted.Add(1)
		s.connsActive.Add(1)
		c := newConn(s, nc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.connsActive.Add(-1)
		}()
	}
}

// Drain begins a graceful shutdown without waiting: the listener closes,
// idle connections are woken and retired, and connections mid-batch finish
// executing and flush their replies before closing. Close waits for it.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	s.ln.Close()
	// Wake connections blocked in Read so their loops observe the drain.
	// In-flight batches are unaffected: execution and the reply flush use
	// the write path, which keeps its own deadline.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
}

// Close drains the server and waits up to timeout for connection
// goroutines to retire (outstanding pipelined batches execute, their
// replies flush); connections still open at the deadline are cut. The
// session pool closes last, after every user is gone. Idempotent.
func (s *Server) Close(timeout time.Duration) error {
	s.closeOnce.Do(func() {
		s.Drain()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		var t <-chan time.Time
		if timeout > 0 {
			tm := time.NewTimer(timeout)
			defer tm.Stop()
			t = tm.C
		}
		select {
		case <-done:
		case <-t:
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
			<-done
			s.closeErr = fmt.Errorf("server: %d connections cut at the drain deadline", len(s.conns))
		}
		if err := s.pool.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// getBuf leases a high-water-sized read buffer.
func (s *Server) getBuf() []byte {
	return *(s.bufPool.Get().(*[]byte))
}

// putBuf returns a read buffer, teaching the pool its size first: the next
// fresh buffer starts at the largest any connection needed.
func (s *Server) putBuf(b []byte) {
	for {
		hw := s.bufHW.Load()
		if int64(cap(b)) <= hw {
			break
		}
		if s.bufHW.CompareAndSwap(hw, int64(cap(b))) {
			break
		}
	}
	b = b[:cap(b)]
	s.bufPool.Put(&b)
}

// batchOp is one decoded request riding through a batch: the wire op and
// operands on the way in, the future / status on the way out.
type batchOp struct {
	op     uint8
	key    uint64
	val    uint64
	fut    *core.AsyncFuture
	err    error
	status uint8 // pre-resolved status for control/rejected ops (0 = KV result pending)
}

// conn is one client connection's state: the framing buffer, the response
// scratch, and the batch arrays — all retained across batches so the
// steady state allocates nothing.
type conn struct {
	srv    *Server
	nc     net.Conn
	tenant *tenantState

	rbuf []byte // framing buffer; [r,w) holds unconsumed bytes
	r, w int
	wbuf []byte // response scratch, reused every batch

	ops  []batchOp       // len MaxPipeline, reused
	sess []*core.Session // per-batch session stripe, reused
	req  proto.Request
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:    s,
		nc:     nc,
		tenant: s.quotas.state(""),
		rbuf:   s.getBuf(),
		wbuf:   make([]byte, 0, 512),
		ops:    make([]batchOp, s.cfg.MaxPipeline),
	}
}

var errDrained = errors.New("server: draining")

// serve is the connection loop: decode a batch, execute it, flush replies.
func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		c.srv.putBuf(c.rbuf)
	}()
	for {
		n, err := c.readBatch()
		if err != nil {
			if _, ok := err.(proto.ErrFrame); ok {
				c.srv.protoErrors.Add(1)
			}
			return
		}
		if err := c.runBatch(n); err != nil {
			return
		}
		if c.srv.draining.Load() && c.w == c.r {
			return // batch flushed, nothing buffered: clean drain exit
		}
	}
}

// readBatch blocks until at least one complete frame is buffered, then
// decodes every complete frame already available (≤ MaxPipeline) into
// c.ops. This is the batching amplifier: a pipelining client's whole
// flush arrives in one Read and becomes one delegation burst.
func (c *conn) readBatch() (int, error) {
	n := 0
	for {
		for n < len(c.ops) {
			payload, size, ok, err := proto.Frame(c.rbuf[c.r:c.w])
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			if err := proto.DecodeRequest(payload, &c.req); err != nil {
				return 0, err
			}
			op := &c.ops[n]
			op.op, op.key, op.val = c.req.Op, c.req.Key, c.req.Val
			op.fut, op.err, op.status = nil, nil, 0
			if c.req.Op == proto.OpHello {
				// Resolve the tenant now, while the name still aliases the
				// read buffer (the string copy happens once per connection).
				c.tenant = c.srv.quotas.state(string(c.req.Tenant))
			}
			c.r += size
			n++
		}
		if n > 0 {
			return n, nil
		}
		if c.srv.draining.Load() {
			return 0, errDrained
		}
		// Compact and grow the framing buffer as needed, then read more.
		if c.r > 0 {
			copy(c.rbuf, c.rbuf[c.r:c.w])
			c.w -= c.r
			c.r = 0
		}
		if c.w == len(c.rbuf) {
			grown := make([]byte, 2*len(c.rbuf))
			copy(grown, c.rbuf[:c.w])
			c.srv.putBuf(c.rbuf)
			c.rbuf = grown
		}
		rd, err := c.nc.Read(c.rbuf[c.w:])
		if rd > 0 {
			c.srv.bytesRead.Add(uint64(rd))
			c.w += rd
		}
		if err != nil && rd == 0 {
			return 0, err // EOF, peer reset, or the drain wake-up deadline
		}
	}
}

// runBatch executes ops[0:n] and writes the reply run. KV ops go through
// one pooled session as a single pipelined burst; control ops resolve
// inline. Reply order is request order, always.
func (c *conn) runBatch(n int) error {
	s := c.srv
	ops := c.ops[:n]
	kv := 0
	for i := range ops {
		switch ops[i].op {
		case proto.OpGet, proto.OpPut, proto.OpDelete:
			kv++
		}
	}
	if kv > 0 {
		if !s.quotas.reserve(c.tenant, kv) {
			for i := range ops {
				if isKV(ops[i].op) {
					ops[i].status = proto.StatusBusy
				}
			}
		} else {
			sess := s.pool.acquire(s.cfg.AcquireTimeout)
			if sess == nil {
				for i := range ops {
					if isKV(ops[i].op) {
						ops[i].status = proto.StatusBusy
					}
				}
			} else {
				// Widen the batch across idle sessions: each extra session
				// adds a burst window of slots, so a deep pipeline batch
				// can be fully in flight before the first await instead of
				// sliding through one 14-slot window. Only the first
				// acquire blocks — widening is strictly opportunistic.
				sessions := append(c.sess[:0], sess)
				need := (kv + s.cfg.Burst - 1) / s.cfg.Burst
				if need > s.cfg.Stripe {
					need = s.cfg.Stripe
				}
				for len(sessions) < need {
					extra := s.pool.tryAcquire()
					if extra == nil {
						break
					}
					sessions = append(sessions, extra)
				}
				c.sess = sessions
				c.submitKV(sessions, ops)
				c.awaitKV(sessions, ops)
				for _, sx := range sessions {
					s.pool.release(sx)
				}
			}
			s.quotas.releaseOps(c.tenant, kv)
		}
	}
	s.ops.Add(uint64(n))
	s.batches.Add(1)
	for {
		max := s.pipelineMax.Load()
		if int64(n) <= max || s.pipelineMax.CompareAndSwap(max, int64(n)) {
			break
		}
	}
	return c.writeReplies(ops)
}

func isKV(op uint8) bool {
	return op == proto.OpGet || op == proto.OpPut || op == proto.OpDelete
}

// submitKV posts every KV op of the batch through the leased sessions —
// back-to-back SubmitKV calls so the ops land as adjacent typed slots in
// the owning workers' next sweep pass. Ops are striped across sessions in
// burst-sized chunks (chunk k rides sessions[k%len]): with enough sessions
// the whole batch is in flight at once; with one session the chunks slide
// through its window sequentially. awaitKV recomputes the same mapping.
func (c *conn) submitKV(sessions []*core.Session, ops []batchOp) {
	burst := c.srv.cfg.Burst
	kvIdx := 0
	for i := range ops {
		op := &ops[i]
		var kind uint8
		switch op.op {
		case proto.OpGet:
			kind = delegation.KVGet
		case proto.OpPut:
			// Upsert = update-first: the overwhelmingly common network PUT
			// hits an existing key (YCSB update mixes); the miss falls back
			// to an insert at await time.
			kind = delegation.KVUpdate
		case proto.OpDelete:
			kind = delegation.KVDelete
		default:
			continue
		}
		sess := sessions[(kvIdx/burst)%len(sessions)]
		kvIdx++
		f, err := sess.SubmitKV(c.srv.router.Lookup(op.key), kind, op.key, op.val)
		if err != nil {
			op.err = err
			continue
		}
		op.fut = f
	}
}

// awaitKV resolves the batch's futures in posting order and fills each
// op's reply state. PUT misses run their insert fallback here, bounded
// against insert/update races with concurrent sessions.
func (c *conn) awaitKV(sessions []*core.Session, ops []batchOp) {
	burst := c.srv.cfg.Burst
	kvIdx := 0
	for i := range ops {
		op := &ops[i]
		if !isKV(op.op) {
			continue
		}
		sess := sessions[(kvIdx/burst)%len(sessions)]
		kvIdx++
		if op.fut == nil {
			continue
		}
		v, ok, err := op.fut.WaitKV()
		op.fut = nil
		if err != nil {
			op.err = err
			continue
		}
		switch op.op {
		case proto.OpGet:
			op.val = v
			if ok {
				op.status = proto.StatusOK
			} else {
				op.status = proto.StatusNotFound
			}
		case proto.OpPut:
			if ok {
				op.status = proto.StatusOK
			} else {
				op.status, op.err = c.upsertFallback(sess, op.key, op.val)
			}
		case proto.OpDelete:
			if ok {
				op.status = proto.StatusOK
			} else {
				op.status = proto.StatusNotFound
			}
		}
	}
}

// upsertFallback completes a PUT whose update found no key: insert, and on
// an insert/update race with another session, retry the pair a few times.
func (c *conn) upsertFallback(sess *core.Session, key, val uint64) (uint8, error) {
	shard := c.srv.router.Lookup(key)
	for attempt := 0; attempt < 4; attempt++ {
		_, ok, err := sess.InvokeKV(shard, delegation.KVInsert, key, val)
		if err != nil {
			return 0, err
		}
		if ok {
			return proto.StatusOK, nil
		}
		_, ok, err = sess.InvokeKV(shard, delegation.KVUpdate, key, val)
		if err != nil {
			return 0, err
		}
		if ok {
			return proto.StatusOK, nil
		}
	}
	return 0, fmt.Errorf("server: upsert of key %d kept racing", key)
}

// writeReplies encodes the batch's responses into the retained scratch and
// writes them as one run under the write deadline.
func (c *conn) writeReplies(ops []batchOp) error {
	s := c.srv
	buf := c.wbuf[:0]
	for i := range ops {
		op := &ops[i]
		switch {
		case op.err != nil:
			buf = proto.AppendError(buf, op.err.Error())
		case op.op == proto.OpGet && op.status == proto.StatusOK:
			buf = proto.AppendValue(buf, op.val)
		case op.status != 0:
			buf = proto.AppendStatus(buf, op.status)
		case op.op == proto.OpPing || op.op == proto.OpHello:
			buf = proto.AppendOK(buf)
		case op.op == proto.OpStats:
			buf = proto.AppendText(buf, c.statsText())
		case op.op == proto.OpScan:
			buf = proto.AppendStatus(buf, proto.StatusUnsupported)
		default:
			buf = proto.AppendError(buf, "server: unroutable op")
		}
	}
	c.wbuf = buf[:0] // retain the grown scratch
	if err := c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return err
	}
	wn, err := c.nc.Write(buf)
	s.bytesWritten.Add(uint64(wn))
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			s.writeTimeouts.Add(1)
		}
		return err
	}
	return nil
}

// statsText renders the STATS reply (rare path; allocation is fine here).
func (c *conn) statsText() []byte {
	st := c.srv.Stats()
	return []byte(fmt.Sprintf(
		"conns_accepted=%d conns_active=%d ops=%d batches=%d pipeline_max=%d quota_rejects=%d busy_rejects=%d pool_waits=%d proto_errors=%d write_timeouts=%d sessions=%d draining=%v",
		st.ConnsAccepted, st.ConnsActive, st.Ops, st.Batches, st.PipelineMax,
		st.QuotaRejects, st.BusyRejects, st.PoolWaits, st.ProtoErrors,
		st.WriteTimeouts, st.Sessions, st.Draining))
}
