// Command selestd is the fault-tolerant multi-tenant estimator daemon: an
// HTTP/JSON front and a selestwire binary-protocol front over the
// lock-free serving engine, with per-tenant admission control,
// backpressured ingest, a per-request degradation ladder, and crash-safe
// snapshot persistence (see internal/server, DESIGN.md §12–§13). Both
// listeners share one Server core, so a tenant's quota, an attribute's
// queue, and the drain gate are identical whichever protocol a request
// arrives on.
//
// Lifecycle: on boot the daemon warm-starts from -snapshot when the file
// exists (a torn snapshot is logged and served cold unless
// -require-snapshot makes it fatal); with no usable local snapshot,
// -join fetches a peer replica's snapshot over the wire protocol
// (opcode snapshot_fetch) and boots from that — the CRC-verified SELS
// envelope means a torn transfer refuses rather than serving a partial
// catalog. It then listens on -addr (HTTP) and, when -wire-addr is set,
// on the binary listener, printing each bound address — pass :0 to let
// the kernel pick ports. While serving it
// persists a crash-safe snapshot every -snapshot-every. On SIGINT/SIGTERM
// it shuts down gracefully: stop accepting work, drain every accepted
// request and queued value (bounded by -drain-timeout), flush refits, and
// write a final snapshot — so the next boot recovers exactly what the
// last one accepted.
//
// HTTP endpoints (request/response bodies JSON except the snapshot;
// errors are typed bodies) — the front for callers that cannot speak
// the wire protocol:
//
//	POST /v1/attrs          — create an attribute (idempotent)
//	POST /v1/estimate       — one range query
//	POST /v1/estimate/batch — many range queries, one attribute
//	POST /v1/ingest         — enqueue stream values (backpressured)
//	GET  /v1/snapshot       — the snapshot envelope, as -join fetches it
//	GET  /healthz           — liveness + drain state
//	GET  /metrics           — Prometheus text exposition
//
// The wire listener speaks the same operations, plus ping, as
// selestwire frames; the selest/client package is its Go client (see
// internal/wire).
//
// Example:
//
//	selestd -addr 127.0.0.1:8765 -wire-addr 127.0.0.1:8766 \
//	    -snapshot /var/lib/selest/snap.selest
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"selest/client"
	"selest/internal/catalog"
	"selest/internal/server"
	"selest/internal/telemetry"
)

// joinFrom warm-boots srv from a peer replica: fetch its snapshot over
// the wire protocol, recover from the byte stream (self-verifying — a
// torn transfer is refused), and persist a local copy when -snapshot is
// set so the next boot does not need the peer. The envelope is
// deterministic, so the local copy is byte-identical to the peer's own
// snapshot file.
func joinFrom(srv *server.Server, peer, snapshotPath string, timeout time.Duration) error {
	c, err := client.New(client.Options{Addr: peer, RequestTimeout: timeout, HealthCheckEvery: -1})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	snap, err := c.FetchSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	if err := srv.RecoverReader(bytes.NewReader(snap)); err != nil {
		return fmt.Errorf("recover fetched snapshot: %w", err)
	}
	if snapshotPath != "" {
		if err := srv.SaveSnapshot(snapshotPath); err != nil {
			return fmt.Errorf("persist fetched snapshot: %w", err)
		}
	}
	return nil
}

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:8765", "HTTP listen address (use :0 for an ephemeral port)")
		wireAddr        = flag.String("wire-addr", "", "selestwire binary-protocol listen address (empty = disabled; use :0 for an ephemeral port)")
		snapshotPath    = flag.String("snapshot", "", "snapshot file: recovered on boot, written on shutdown and every -snapshot-every")
		snapshotEvery   = flag.Duration("snapshot-every", 0, "periodic crash-safe snapshot interval (0 = only at shutdown)")
		requireSnapshot = flag.Bool("require-snapshot", false, "refuse to start when -snapshot exists but cannot be recovered (default: log and serve cold)")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: drain, flush, and snapshot within this")
		quotaRate       = flag.Float64("quota-rate", 0, "per-tenant admission rate in tokens/second (0 = unlimited); estimates cost 1, batches and ingests their size")
		quotaBurst      = flag.Float64("quota-burst", 0, "per-tenant token-bucket burst")
		queueCap        = flag.Int("queue-cap", 0, "max values queued per attribute for ingest; overflow sheds oldest; memory is taken as values arrive and given back when the queue drains (0 = 8192)")
		maxInflight     = flag.Int64("max-inflight", 0, "inflight-request threshold beyond which fresh estimates degrade to the snapshot rung (0 = 1024)")
		maxBatch        = flag.Int("max-batch", 0, "max queries per batch / values per ingest (0 = 4096)")
		defaultTimeout  = flag.Duration("default-timeout", 0, "deadline applied to requests without a budget of their own (0 = 5s)")
		degradeDeadline = flag.Duration("degrade-deadline", 0, "remaining-deadline threshold below which fresh estimates skip their flush (0 = 25ms)")
		join            = flag.String("join", "", "peer replica's wire address to fetch a boot snapshot from when the local -snapshot is absent or torn")
		joinTimeout     = flag.Duration("join-timeout", 30*time.Second, "budget for the -join snapshot fetch and recovery")
		globalRate      = flag.Float64("global-rate", 0, "box-wide admission cap in requests/second across all tenants (0 = unlimited); used to pin per-replica capacity in cluster benchmarks")
		globalBurst     = flag.Float64("global-burst", 0, "box-wide token-bucket burst (0 = one second at -global-rate)")
		pprofAddr       = flag.String("pprof-addr", "", "net/http/pprof listen address (empty = disabled); see README \"Profiling\" for the recipe")
	)
	flag.Parse()
	log.SetPrefix("selestd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	telemetry.Enable()
	srv, err := server.NewServer(server.Options{
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		QueueCap:        *queueCap,
		DefaultTimeout:  *defaultTimeout,
		DegradeDeadline: *degradeDeadline,
		MaxInflight:     *maxInflight,
		MaxBatch:        *maxBatch,
		GlobalRate:      *globalRate,
		GlobalBurst:     *globalBurst,
	})
	if err != nil {
		log.Fatalf("configuration: %v", err)
	}

	warm := false
	if *snapshotPath != "" {
		switch err := srv.Recover(*snapshotPath); {
		case err == nil:
			log.Printf("warm start: recovered %s", *snapshotPath)
			warm = true
		case errors.Is(err, os.ErrNotExist):
			log.Printf("cold start: no snapshot at %s", *snapshotPath)
		case errors.Is(err, catalog.ErrTornSnapshot) && !*requireSnapshot:
			log.Printf("cold start: snapshot %s is torn (%v); serving cold", *snapshotPath, err)
		default:
			log.Fatalf("recovering %s: %v", *snapshotPath, err)
		}
	}
	if !warm && *join != "" {
		switch err := joinFrom(srv, *join, *snapshotPath, *joinTimeout); {
		case err == nil:
			log.Printf("warm start: joined from %s", *join)
		case *requireSnapshot:
			log.Fatalf("joining %s: %v", *join, err)
		default:
			log.Printf("cold start: join %s failed (%v); serving cold", *join, err)
		}
	}

	// The profiling listener gets its own mux (never the service mux, and
	// not http.DefaultServeMux): the pprof endpoints stay off every
	// serving address unless an operator binds them explicitly.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("listen pprof %s: %v", *pprofAddr, err)
		}
		fmt.Printf("selestd pprof listening on %s\n", pln.Addr())
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	// The bound addresses on stdout are the machine-readable contract the
	// bench harness waits for.
	fmt.Printf("selestd listening on %s\n", ln.Addr())

	var wireSrv *server.WireServer
	serveErr := make(chan error, 2)
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("listen wire %s: %v", *wireAddr, err)
		}
		fmt.Printf("selestd wire listening on %s\n", wln.Addr())
		wireSrv = srv.NewWireServer()
		go func() {
			if err := wireSrv.Serve(wln); err != nil {
				serveErr <- fmt.Errorf("wire serve: %w", err)
			}
		}()
	}
	os.Stdout.Sync()

	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			serveErr <- fmt.Errorf("serve: %w", err)
		}
	}()

	stopSnapshots := make(chan struct{})
	if *snapshotPath != "" && *snapshotEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopSnapshots:
					return
				case <-tick.C:
					if err := srv.SaveSnapshot(*snapshotPath); err != nil {
						log.Printf("periodic snapshot: %v", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v; draining (budget %v)", s, *drainTimeout)
	case err := <-serveErr:
		log.Fatal(err)
	}
	close(stopSnapshots)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections and wait for in-flight handlers on both
	// transports first, then drain queues, flush refits, and persist.
	var shut sync.WaitGroup
	shut.Add(1)
	go func() {
		defer shut.Done()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	if wireSrv != nil {
		shut.Add(1)
		go func() {
			defer shut.Done()
			if err := wireSrv.Shutdown(ctx); err != nil {
				log.Printf("wire shutdown: %v", err)
			}
		}()
	}
	shut.Wait()
	if err := srv.Close(ctx, *snapshotPath); err != nil {
		log.Printf("drain: %v", err)
		os.Exit(1)
	}
	if *snapshotPath != "" {
		log.Printf("shutdown complete; snapshot at %s", *snapshotPath)
	} else {
		log.Printf("shutdown complete")
	}
}
