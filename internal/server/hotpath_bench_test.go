// Request-path hot-path benchmarks: the inline dispatch engine measured
// in isolation (decode → admit → answer → encode → write → flush, no
// socket; each serve flushes, as the reader does before it waits) and
// end-to-end over real TCP with deep pipelining. Run via `make
// bench-hotpath`; committed baselines live in BENCH_hotpath.json and
// the before/after story in README's perf table.
package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"selest/internal/wire"
)

// BenchmarkHotpathEstimateInline is the headline number: one
// server-side estimate round trip on the fast path. The allocs/op
// column is the zero-alloc contract (also pinned by
// TestWireFastPathEstimateZeroAllocs).
func BenchmarkHotpathEstimateInline(b *testing.B) {
	s := primedServer(b)
	fp, mc, cw := newMemFastPath(s)
	payload := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0.25, Hi: 0.75}.Append(nil)
	if !fp.serve(wire.OpEstimate, 0, payload) {
		b.Fatal("estimate not served inline")
	}
	cw.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.buf.Reset()
		if !fp.serve(wire.OpEstimate, uint64(i), payload) {
			b.Fatal("estimate fell off the fast path")
		}
		cw.flush()
	}
}

func BenchmarkHotpathEstimateBatchInline16(b *testing.B) {
	s := primedServer(b)
	fp, mc, cw := newMemFastPath(s)
	queries := make([]wire.Range, 16)
	for i := range queries {
		queries[i] = wire.Range{Lo: 0, Hi: float64(i+1) / 16}
	}
	payload := wire.EstimateBatchReq{Tenant: "acme", Attr: "price", Queries: queries}.Append(nil)
	if !fp.serve(wire.OpEstimateBatch, 0, payload) {
		b.Fatal("batch not served inline")
	}
	cw.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.buf.Reset()
		if !fp.serve(wire.OpEstimateBatch, uint64(i), payload) {
			b.Fatal("batch fell off the fast path")
		}
		cw.flush()
	}
}

func BenchmarkHotpathPingInline(b *testing.B) {
	s := primedServer(b)
	fp, mc, cw := newMemFastPath(s)
	payload := wire.PingReq{}.Append(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.buf.Reset()
		if !fp.serve(wire.OpPing, uint64(i), payload) {
			b.Fatal("ping fell off the fast path")
		}
		cw.flush()
	}
}

// BenchmarkHotpathEstimateWirePipelined is the end-to-end number: raw
// TCP, 64 estimates in flight, one ns/op per request — the single-conn
// analogue of perfbench's serve-read workload.
func BenchmarkHotpathEstimateWirePipelined(b *testing.B) {
	const depth = 64
	s := primedServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := s.NewWireServer()
	go func() { _ = ws.Serve(ln) }()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)

	// One pre-encoded block of `depth` requests; ids repeat across
	// blocks, which the server does not mind — correlation is per frame.
	payload := wire.EstimateReq{Tenant: "acme", Attr: "price", Lo: 0.25, Hi: 0.75}.Append(nil)
	var block []byte
	for id := uint64(1); id <= depth; id++ {
		block = wire.AppendFrame(block, wire.Frame{Op: wire.OpEstimate, ID: id, Payload: payload})
	}
	frameLen := len(block) / depth

	var rbuf []byte
	readN := func(n int) {
		for j := 0; j < n; j++ {
			var f wire.Frame
			f, rbuf, err = wire.ReadFrame(br, wire.MaxPayload, rbuf)
			if err != nil {
				b.Fatal(err)
			}
			if f.Op != wire.OpEstimate|wire.RespFlag {
				b.Fatalf("response op %s", f.Op)
			}
		}
	}
	// Warm the path end to end before timing.
	if _, err := conn.Write(block[:frameLen]); err != nil {
		b.Fatal(err)
	}
	readN(1)

	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := depth
		if b.N-done < depth {
			n = b.N - done
		}
		if _, err := conn.Write(block[:n*frameLen]); err != nil {
			b.Fatal(err)
		}
		readN(n)
		done += n
	}
}
