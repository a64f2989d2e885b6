package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"robustconf/client"
	"robustconf/internal/core"
	"robustconf/internal/index/btree"
	"robustconf/internal/server/proto"
	"robustconf/internal/topology"
)

// newTestServer starts a two-domain runtime with two btree shards and a
// front end over it, applying any non-zero overrides from opt.
func newTestServer(t *testing.T, opt Config) (*Server, *core.Runtime) {
	t.Helper()
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.Start(core.Config{
		Machine: m,
		Domains: []core.DomainSpec{
			{Name: "t0", CPUs: topology.Range(0, 4)},
			{Name: "t1", CPUs: topology.Range(4, 8)},
		},
		Assignment: map[string]int{"shard0": 0, "shard1": 1},
	}, map[string]any{"shard0": btree.New(), "shard1": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	cfg := opt
	cfg.Runtime = rt
	if cfg.Shards == nil {
		cfg.Shards = []string{"shard0", "shard1"}
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 2
	}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(5 * time.Second) })
	return srv, rt
}

// TestServerSyncOps covers the synchronous surface end to end: upsert
// insert + overwrite, hit, miss, delete, re-delete, ping, stats.
func TestServerSyncOps(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put(10, 100); err != nil {
		t.Fatalf("put(insert): %v", err)
	}
	if err := c.Put(10, 200); err != nil {
		t.Fatalf("put(update): %v", err)
	}
	if v, found, err := c.Get(10); err != nil || !found || v != 200 {
		t.Fatalf("get(10) = (%d,%v,%v), want (200,true,nil)", v, found, err)
	}
	if _, found, err := c.Get(11); err != nil || found {
		t.Fatalf("get(miss) = (found=%v, err=%v), want miss", found, err)
	}
	if found, err := c.Delete(10); err != nil || !found {
		t.Fatalf("delete(10) = (%v,%v), want (true,nil)", found, err)
	}
	if found, err := c.Delete(10); err != nil || found {
		t.Fatalf("re-delete(10) = (%v,%v), want (false,nil)", found, err)
	}
	if _, found, err := c.Get(10); err != nil || found {
		t.Fatalf("get after delete still found (err=%v)", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	stats, err := c.Stats()
	if err != nil || !strings.Contains(stats, "ops=") {
		t.Fatalf("stats = %q, %v", stats, err)
	}
}

// TestServerPipelinedFIFO drives a deep pipelined batch and checks every
// reply arrives in request order with the right value — the wire contract
// that replaces request ids.
func TestServerPipelinedFIFO(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	for i := uint64(0); i < n; i++ {
		c.QueuePut(i, i*3)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if _, _, err := c.Recv(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := uint64(0); i < n; i++ {
		c.QueueGet(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		v, found, err := c.Recv()
		if err != nil || !found || v != i*3 {
			t.Fatalf("get %d = (%d,%v,%v), want (%d,true,nil) — FIFO order broken?", i, v, found, err, i*3)
		}
	}
	if st := srv.Stats(); st.PipelineMax < n {
		t.Errorf("pipeline max %d, want ≥ %d (batch did not land as one burst)", st.PipelineMax, n)
	}
}

// TestServerPoolExhaustionBusy leases the pool dry from the test and
// checks KV ops degrade to typed BUSY within the acquire deadline, then
// succeed once a session frees up.
func TestServerPoolExhaustionBusy(t *testing.T) {
	srv, _ := newTestServer(t, Config{Sessions: 1, AcquireTimeout: 5 * time.Millisecond})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := srv.pool.acquire(time.Second)
	if held == nil {
		t.Fatal("could not lease the only session")
	}
	if err := c.Put(1, 2); !errors.Is(err, client.ErrBusy) {
		srv.pool.release(held)
		t.Fatalf("put with exhausted pool: %v, want ErrBusy", err)
	}
	if st := srv.Stats(); st.BusyRejects == 0 || st.PoolWaits == 0 {
		t.Errorf("stats after rejection: busy=%d waits=%d, want both > 0", st.BusyRejects, st.PoolWaits)
	}
	// Control ops don't need a session, so the connection stays healthy.
	if err := c.Ping(); err != nil {
		srv.pool.release(held)
		t.Fatalf("ping during exhaustion: %v", err)
	}
	srv.pool.release(held)
	if err := c.Put(1, 2); err != nil {
		t.Fatalf("put after release: %v", err)
	}
}

// TestServerTenantQuotaBusy pins per-tenant admission: a batch larger than
// the tenant's in-flight quota is rejected whole with BUSY, smaller
// batches pass, and other tenants are unaffected.
func TestServerTenantQuotaBusy(t *testing.T) {
	srv, _ := newTestServer(t, Config{TenantOps: 4})
	over, err := client.DialTenant(srv.Addr(), "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()

	for i := uint64(0); i < 8; i++ {
		over.QueuePut(i, i)
	}
	if err := over.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := over.Recv(); !errors.Is(err, client.ErrBusy) {
			t.Fatalf("op %d of over-quota batch: %v, want ErrBusy", i, err)
		}
	}
	if st := srv.Stats(); st.QuotaRejects == 0 {
		t.Error("quota rejection not counted")
	}
	// Within quota the same tenant proceeds.
	for i := uint64(0); i < 4; i++ {
		over.QueuePut(i, i)
	}
	if err := over.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := over.Recv(); err != nil {
			t.Fatalf("within-quota op %d: %v", i, err)
		}
	}
	// A different tenant is untouched by the greedy one's rejections.
	other, err := client.DialTenant(srv.Addr(), "modest")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Put(100, 1); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
}

// waitFor polls cond every 5ms until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestServerSlowReaderWriteTimeout floods STATS requests without ever
// reading replies; once the response path backs up the server must cut
// the connection at the write deadline instead of blocking a goroutine
// forever. STATS is the probe because of its ~40× reply amplification
// (5-byte request, ~250-byte response): the reply volume overwhelms the
// kernel's auto-tuned send buffer quickly, which tiny PING replies never
// would. Deliberately no SO_RCVBUF shrinking here — a receive window
// smaller than the loopback MSS livelocks TCP itself in retransmission
// backoff and the flood never reaches the server.
func TestServerSlowReaderWriteTimeout(t *testing.T) {
	srv, _ := newTestServer(t, Config{WriteTimeout: 100 * time.Millisecond})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	stats := proto.AppendRequest(nil, proto.Request{Op: proto.OpStats})
	flood := make([]byte, 0, 64<<10)
	for len(flood)+len(stats) <= 64<<10 {
		flood = append(flood, stats...)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().WriteTimeouts > 0 {
			// Server cut the slow reader; its goroutine must retire.
			waitFor(t, 5*time.Second, func() bool {
				return srv.Stats().ConnsActive == 0
			}, "connection not retired after write timeout")
			return
		}
		nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := nc.Write(flood); err != nil {
			// Back-pressured or already cut; keep polling the counter.
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Fatalf("no write timeout recorded after 20s (stats %+v)", srv.Stats())
}

// TestServerDrainFlushesOutstanding pins graceful shutdown: a batch
// already read from the wire when the drain starts must execute and flush
// its replies before the connection closes. The test holds the pool's only
// session so the batch is deterministically in flight when Drain fires.
func TestServerDrainFlushesOutstanding(t *testing.T) {
	srv, _ := newTestServer(t, Config{Sessions: 1, AcquireTimeout: 10 * time.Second})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := srv.pool.acquire(time.Second)
	if held == nil {
		t.Fatal("could not lease the only session")
	}
	const n = 32
	for i := uint64(0); i < n; i++ {
		c.QueuePut(i, i+1)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the connection goroutine has the batch and is blocked on
	// the pool, then drain under it.
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().PoolWaits == 0; {
		if time.Now().After(deadline) {
			srv.pool.release(held)
			t.Fatal("connection never blocked on the pool")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain()
	srv.pool.release(held)

	for i := uint64(0); i < n; i++ {
		if _, _, err := c.Recv(); err != nil {
			t.Fatalf("reply %d lost in drain: %v", i, err)
		}
	}
	// After the flushed batch the server retires the connection.
	c.QueueGet(1)
	if err := c.Flush(); err == nil {
		if _, _, err := c.Recv(); err == nil {
			t.Fatal("connection still serving after drain")
		}
	}
	if err := srv.Close(5 * time.Second); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// TestServerProtoErrorDropsConnection sends a malformed frame and checks
// the server counts it and cuts the stream rather than resyncing.
func TestServerProtoErrorDropsConnection(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Valid length prefix, unknown op code.
	if _, err := nc.Write([]byte{9, 0, 0, 0, 0xEE, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if n, err := nc.Read(buf); err == nil {
		t.Fatalf("read %d bytes after garbage, want connection cut", n)
	}
	if st := srv.Stats(); st.ProtoErrors == 0 {
		t.Error("proto error not counted")
	}
}

// TestServerScanUnsupported pins the SCAN stub's typed reply.
func TestServerScanUnsupported(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(proto.AppendRequest(nil, proto.Request{Op: proto.OpScan, Key: 1, Limit: 10})); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok, err := proto.Frame(buf[:n])
	if err != nil || !ok {
		t.Fatalf("frame: ok=%v err=%v", ok, err)
	}
	var resp proto.Response
	if err := proto.DecodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != proto.StatusUnsupported {
		t.Fatalf("SCAN status %d, want UNSUPPORTED", resp.Status)
	}
}

// TestServerCloseIdempotent pins double-close and close-with-idle-conns.
func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(5 * time.Second); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(5 * time.Second); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if !srv.Stats().Draining {
		t.Error("stats do not report draining after close")
	}
	// New connections are refused (listener down).
	if _, err := client.Dial(srv.Addr()); err == nil {
		t.Error("dial succeeded after close")
	}
}

// TestListenValidation pins config validation errors.
func TestListenValidation(t *testing.T) {
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.Start(core.Config{
		Machine:    m,
		Domains:    []core.DomainSpec{{Name: "v0", CPUs: topology.Range(0, 8)}},
		Assignment: map[string]int{"s": 0},
	}, map[string]any{"s": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	cases := []Config{
		{},                                   // no runtime
		{Runtime: rt},                        // no shards
		{Runtime: rt, Shards: []string{"s"}}, // no sessions
		{Runtime: rt, Shards: []string{"nope"}, Sessions: 1}, // unregistered shard
	}
	for i, cfg := range cases {
		if _, err := Listen("127.0.0.1:0", cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
