// HTTP and expvar exposure of the Default registry, used by the
// -metrics-addr flags of cmd/selest and cmd/experiments. Kept in its own
// file so the metrics core itself stays free of net/http.
package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"sync"
)

var publishOnce sync.Once

// PublishExpvar publishes the Default registry's snapshot as the expvar
// variable "selest", visible at /debug/vars on any server using
// http.DefaultServeMux. Safe to call more than once.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("selest", expvar.Func(func() any { return Default.Snapshot() }))
	})
}

// Handler returns an http.Handler serving the Default registry in the
// Prometheus text format, followed by the Go runtime series
// (WriteRuntime) read at scrape time.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := Default.WritePrometheus(w); err == nil {
			_ = WriteRuntime(w)
		}
	})
}

var serveOnce sync.Once

// StartServer binds addr and serves /metrics (Prometheus text) and
// /debug/vars (expvar JSON, including the registry snapshot) in a
// background goroutine. The bind happens synchronously so a bad address
// fails fast; the returned listener closes the server.
func StartServer(addr string) (net.Listener, error) {
	PublishExpvar()
	serveOnce.Do(func() { http.Handle("/metrics", Handler()) })
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, nil) }()
	return ln, nil
}
