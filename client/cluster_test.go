// Cluster-client pins: tenant sharding over a replica fleet, write
// fan-out, read failover past a dead replica, snapshot fetching, and
// the chaos suite — a replica killed and restarted under live mixed
// load with zero client-visible failures. Run with -race (make
// race-cluster) to sweep the routing layer's concurrency.
package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/client"
	"selest/internal/cluster"
	"selest/internal/server"
)

// fleet is n independent in-process daemons with wire listeners, each
// killable and restartable on its original address.
type fleet struct {
	t     *testing.T
	srvs  []*server.Server
	addrs []string

	mu  sync.Mutex
	wss []*server.WireServer
	lns []net.Listener
}

func startFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{
		t:    t,
		srvs: make([]*server.Server, n),
		wss:  make([]*server.WireServer, n),
		lns:  make([]net.Listener, n),
	}
	for i := 0; i < n; i++ {
		srv, err := server.NewServer(server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws := srv.NewWireServer()
		go func() { _ = ws.Serve(ln) }()
		f.srvs[i] = srv
		f.lns[i] = ln
		f.wss[i] = ws
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	t.Cleanup(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i := range f.srvs {
			if f.lns[i] != nil {
				_ = f.lns[i].Close()
			}
			f.wss[i].CloseConns()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = f.srvs[i].Close(ctx, "")
			cancel()
		}
	})
	return f
}

// kill simulates a crash of replica i: the listener closes (new dials
// refused) and every live connection is severed, with no draining.
func (f *fleet) kill(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = f.lns[i].Close()
	f.lns[i] = nil
	f.wss[i].CloseConns()
}

// restart brings replica i back on its original address, state intact
// (a crash loses only connections here; durability is the snapshot
// story, tested separately).
func (f *fleet) restart(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ln net.Listener
	var err error
	// The freed port can straggle briefly; retry the bind.
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", f.addrs[i])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		f.t.Errorf("restart replica %d on %s: %v", i, f.addrs[i], err)
		return
	}
	ws := f.srvs[i].NewWireServer()
	go func() { _ = ws.Serve(ln) }()
	f.lns[i] = ln
	f.wss[i] = ws
}

func (f *fleet) client(t *testing.T, rf int, mutate ...func(*client.Options)) *client.Client {
	t.Helper()
	opts := client.Options{
		Addrs:            append([]string(nil), f.addrs...),
		Replication:      rf,
		HealthCheckEvery: -1,
	}
	for _, m := range mutate {
		m(&opts)
	}
	c, err := client.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClientClusterSharding pins that with Replication 1 each tenant's
// traffic lands on exactly the replica the rendezvous ring names — the
// server-side ground truth, not just client bookkeeping.
func TestClientClusterSharding(t *testing.T) {
	f := startFleet(t, 3)
	c := f.client(t, 1)
	ctx := context.Background()

	ring, err := cluster.New(f.addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]*server.Server{}
	for i, a := range f.addrs {
		byAddr[a] = f.srvs[i]
	}

	for i := 0; i < 12; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if err := c.CreateAttr(ctx, tenant, "v", testCfg()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(ctx, tenant, "v", []float64{0.2, 0.4, 0.6}); err != nil {
			t.Fatal(err)
		}
		home := ring.Primary(tenant)
		for addr, srv := range byAddr {
			_, err := srv.Estimate(ctx, tenant, "v", 0, 1, false)
			if addr == home && err != nil {
				t.Fatalf("tenant %s missing from its home replica %s: %v", tenant, addr, err)
			}
			if addr != home && !errors.Is(err, server.ErrNotFound) {
				t.Fatalf("tenant %s leaked to replica %s (err=%v)", tenant, addr, err)
			}
		}
	}
}

// TestClientClusterWriteFanout pins that with Replication 2 a write
// lands on both ring replicas, and that their independently-fed
// estimators answer identically (same values, same seed — the
// determinism the fan-out contract leans on).
func TestClientClusterWriteFanout(t *testing.T) {
	f := startFleet(t, 2)
	c := f.client(t, 2)
	ctx := context.Background()

	if err := c.CreateAttr(ctx, "acme", "v", testCfg()); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = (float64(i) + 0.5) / 256
	}
	inserted := insertedSince()
	if _, err := c.Ingest(ctx, "acme", "v", vals); err != nil {
		t.Fatal(err)
	}
	// Both replicas must have drained the batch before their fresh
	// estimates can agree.
	waitFor(t, "both replicas to drain", func() bool { return inserted() >= 2*256 })
	var answers []server.EstimateResult
	for _, srv := range f.srvs {
		res, err := srv.Estimate(ctx, "acme", "v", 0.25, 0.75, true)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, res)
	}
	if answers[0] != answers[1] {
		t.Fatalf("replicas disagree after fan-out: %+v vs %+v", answers[0], answers[1])
	}
}

// TestClientClusterFailover kills a tenant's primary and pins that
// reads fail over to the secondary inside the normal retry budget, with
// the failover visible in Stats.
func TestClientClusterFailover(t *testing.T) {
	f := startFleet(t, 2)
	c := f.client(t, 2, func(o *client.Options) {
		o.RetryBaseDelay = time.Millisecond
		o.RetryMaxDelay = 10 * time.Millisecond
		o.MaxRetries = 5
	})
	ctx := context.Background()

	if err := c.CreateAttr(ctx, "acme", "v", testCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "acme", "v", []float64{0.1, 0.5, 0.9}); err != nil {
		t.Fatal(err)
	}

	ring, err := cluster.New(f.addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range f.addrs {
		if a == ring.Primary("acme") {
			f.kill(i)
		}
	}

	res, err := c.Estimate(ctx, "acme", "v", 0, 1, client.WithFresh())
	if err != nil {
		t.Fatalf("estimate with primary dead: %v", err)
	}
	if res.Selectivity <= 0 {
		t.Fatalf("estimate result: %+v", res)
	}
	if s := c.Stats(); s.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", s)
	}
	// Writes keep landing on the surviving replica.
	if _, err := c.Ingest(ctx, "acme", "v", []float64{0.3}); err != nil {
		t.Fatalf("ingest with primary dead: %v", err)
	}
}

// TestClientClusterHealthEjection pins the health loop's both
// directions: a dead replica is ejected (routing stops paying its dial
// timeout) and a recovered one is re-admitted.
func TestClientClusterHealthEjection(t *testing.T) {
	f := startFleet(t, 2)
	c := f.client(t, 2, func(o *client.Options) {
		o.HealthCheckEvery = 20 * time.Millisecond
		o.DialTimeout = 200 * time.Millisecond
		o.RetryBaseDelay = time.Millisecond
		o.RetryMaxDelay = 10 * time.Millisecond
	})
	ctx := context.Background()
	if err := c.CreateAttr(ctx, "acme", "v", testCfg()); err != nil {
		t.Fatal(err)
	}

	f.kill(0)
	waitFor(t, "replica ejection", func() bool { return c.Stats().Ejected >= 1 })

	f.restart(0)
	// Re-admission is observable as calls succeeding without growing the
	// failover count: once the down bit clears, routing goes straight to
	// the preferred replica again.
	waitFor(t, "replica re-admission", func() bool {
		before := c.Stats().Failovers
		if _, err := c.Estimate(ctx, "acme", "v", 0, 1); err != nil {
			return false
		}
		return c.Stats().Failovers == before
	})
}

// TestClientClusterChaos is the -race suite's centerpiece: mixed
// estimate/ingest load over a 3-replica fleet with Replication 2 while
// one replica is crashed and later restarted mid-flight. The retry and
// failover machinery must absorb the crash completely: zero
// client-visible errors.
func TestClientClusterChaos(t *testing.T) {
	f := startFleet(t, 3)
	c := f.client(t, 2, func(o *client.Options) {
		o.HealthCheckEvery = 25 * time.Millisecond
		o.MaxRetries = 8
		o.RetryBaseDelay = time.Millisecond
		o.RetryMaxDelay = 25 * time.Millisecond
		o.RequestTimeout = 5 * time.Second
	})
	ctx := context.Background()

	const tenants = 6
	for i := 0; i < tenants; i++ {
		if err := c.CreateAttr(ctx, fmt.Sprintf("t%d", i), "v", testCfg()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(ctx, fmt.Sprintf("t%d", i), "v", []float64{0.2, 0.5, 0.8}); err != nil {
			t.Fatal(err)
		}
	}

	var failed atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tenant := fmt.Sprintf("t%d", (w+i)%tenants)
				var err error
				if i%4 == 3 {
					_, err = c.Ingest(ctx, tenant, "v", []float64{float64(i%97) / 97})
				} else {
					_, err = c.Estimate(ctx, tenant, "v", 0.1, 0.9)
				}
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond)
	f.kill(1)
	time.Sleep(300 * time.Millisecond)
	f.restart(1)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d client-visible failures during chaos; first: %v", n, firstErr.Load())
	}
	if s := c.Stats(); s.Requests < 100 {
		t.Fatalf("chaos load barely ran: %+v", s)
	}
}

// TestClientFetchSnapshotParity pins that the client downloads the
// server's own SELS envelope byte for byte, and that it boots a replica
// that answers immediately — the client half of `selestd -join`.
func TestClientFetchSnapshotParity(t *testing.T) {
	ts := startService(t, server.Options{})
	ctx := context.Background()

	cw := ts.client(t)
	if err := cw.CreateAttr(ctx, "acme", "v", testCfg()); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 128)
	for i := range vals {
		vals[i] = (float64(i) + 0.5) / 128
	}
	inserted := insertedSince()
	if _, err := cw.Ingest(ctx, "acme", "v", vals); err != nil {
		t.Fatal(err)
	}
	// A fresh estimate forces the drained values into a fitted snapshot so
	// the fetched envelope is non-trivial. Wait for the drain first: a
	// value still queued would reach the reservoir between the two
	// fetches and make the envelopes differ.
	waitFor(t, "the ingest to drain", func() bool { return inserted() >= 128 })
	if _, err := cw.Estimate(ctx, "acme", "v", 0.2, 0.8, client.WithFresh()); err != nil {
		t.Fatal(err)
	}

	fetched, err := cw.FetchSnapshot(ctx)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	own, err := ts.srv.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched) == 0 || !bytes.Equal(fetched, own) {
		t.Fatalf("fetched snapshot differs from the server's own: %d vs %d bytes", len(fetched), len(own))
	}

	joined, err := server.NewServer(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := joined.RecoverReader(bytes.NewReader(fetched)); err != nil {
		t.Fatal(err)
	}
	res, err := joined.Estimate(ctx, "acme", "v", 0.2, 0.8, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "snapshot" || res.Generation == 0 {
		t.Fatalf("joined replica answered rung %q gen %d; want snapshot rung", res.Rung, res.Generation)
	}
}

// TestClientFetchSnapshotOver16MiB pins that a snapshot larger than the
// request-side 16 MiB frame cap still ships: the envelope of three
// attributes holding 810,000 sampled values each is over 18 MiB, and the
// fetched bytes equal the server's own.
func TestClientFetchSnapshotOver16MiB(t *testing.T) {
	const attrs, values = 3, 810_000
	ts := startService(t, server.Options{MaxBatch: values, QueueCap: values})
	ctx := context.Background()
	vals := make([]float64, values)
	for i := range vals {
		vals[i] = float64(i) / values
	}
	inserted := insertedSince()
	for i := 0; i < attrs; i++ {
		// A reservoir that never fills holds every value and fits nothing.
		cfg := server.AttrConfig{DomainLo: 0, DomainHi: 1, ReservoirSize: 1 << 20, Seed: uint64(i)}
		if err := ts.srv.CreateAttr("acme", fmt.Sprint("v", i), cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.srv.Ingest("acme", fmt.Sprint("v", i), vals); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the ingests to drain", func() bool { return inserted() >= attrs*values })

	fetched, err := ts.client(t).FetchSnapshot(ctx)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	own, err := ts.srv.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(own) <= 18<<20 || !bytes.Equal(fetched, own) {
		t.Fatalf("fetched %d bytes, server's own snapshot %d (want equal and over 18 MiB)", len(fetched), len(own))
	}
}
