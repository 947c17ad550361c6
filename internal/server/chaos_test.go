// The chaos suite: every test here breaks the service on purpose —
// panicking refits, kill-and-restart, shutdown under load, drained
// tenants, torn snapshot files — and pins the robustness contracts the
// package documents: accepted work is never dropped, recovery is
// bit-identical, and failures degrade estimate quality, never
// availability. Run under -race via `make race-service`.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selest/internal/catalog"
	"selest/internal/faultinject"
	"selest/internal/telemetry"
)

// waitCond polls cond until it holds or the deadline expires.
func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosRefitPanicSoak is the degradation-ladder soak: mixed
// query/ingest load runs while the primary builder is made to panic via
// faultinject. The pins: the builder rung descends to a
// fallback, recovers to the primary once the fault clears (after the
// online ladder's promotion streak of clean refits), the
// degraded-estimators gauge counts the attribute while it is down and
// drops it once it recovers, and not a single query errors at any point.
func TestChaosRefitPanicSoak(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	// Prime a healthy fit so the soak starts at rung 0 with a snapshot.
	if _, err := s.Ingest("acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 64)
	if _, err := s.Estimate(context.Background(), "acme", "price", 0, 1, true); err != nil {
		t.Fatal(err)
	}
	if a.est.DegradationLevel() != 0 {
		t.Fatalf("soak must start on the primary rung, at %d", a.est.DegradationLevel())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, queryErrs atomic.Int64
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
				lo := float64(i%10) / 20
				if _, err := s.Estimate(context.Background(), "acme", "price", lo, lo+0.5, i%4 == 0); err != nil {
					queryErrs.Add(1)
					t.Errorf("query errored during chaos: %v", err)
				}
				queries.Add(1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := seq(64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Ingest("acme", "price", batch); err != nil {
				t.Errorf("ingest errored during chaos: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// The gauge counts every degraded estimator in the process, so the
	// soak reads it against the count before its attribute degrades.
	degraded := func() float64 {
		return telemetry.Default.Snapshot().Gauges["selest_online_degraded_estimators"]
	}
	base := degraded()
	faultinject.EnablePanic(FaultRefitPrimary, "chaos: primary refit panic")
	waitCond(t, "builder rung to descend", 15*time.Second, func() bool {
		return a.est.DegradationLevel() >= 1
	})
	// With promotion on the rung legitimately flaps (promote → strike
	// → demote) while the fault holds, so the gauge is polled, not
	// spot-checked.
	waitCond(t, "degraded gauge to count the attribute", 15*time.Second, func() bool {
		return degraded() >= base+1
	})

	faultinject.Disable(FaultRefitPrimary)
	waitCond(t, "builder rung to recover", 15*time.Second, func() bool {
		return a.est.DegradationLevel() == 0
	})

	close(stop)
	wg.Wait()
	if queryErrs.Load() != 0 {
		t.Fatalf("%d of %d queries errored; the ladder must absorb refit panics", queryErrs.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("soak ran no queries")
	}
	if g := degraded(); g != base {
		t.Errorf("degraded gauge %v after recovery, want %v", g, base)
	}
}

// TestChaosKillAndRestart pins crash-safe recovery: a server killed
// without any shutdown (no Close, no flush) recovers from its last
// snapshot into an identical service — and re-saving immediately yields a
// bit-identical file, the strongest statement that no state was lost or
// reordered.
func TestChaosKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	path1 := filepath.Join(dir, "snap1.selest")
	path2 := filepath.Join(dir, "snap2.selest")

	s1 := mustServer(t, Options{})
	cfgA, cfgB := testAttrCfg(), testAttrCfg()
	cfgB.ReservoirSize = 32
	cfgB.RefitEvery = 32
	for _, c := range []struct {
		tenant, attr string
		cfg          AttrConfig
		n            int
	}{
		{"acme", "price", cfgA, 200},
		{"acme", "weight", cfgB, 40},
		{"zeta", "latency", cfgA, 100},
	} {
		if err := s1.CreateAttr(c.tenant, c.attr, c.cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Ingest(c.tenant, c.attr, seq(c.n)); err != nil {
			t.Fatal(err)
		}
		waitInserted(t, s1, c.tenant, c.attr, c.n)
	}
	// A cold attribute: config must survive with no sample at all.
	if err := s1.CreateAttr("zeta", "empty", cfgA); err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveSnapshot(path1); err != nil {
		t.Fatal(err)
	}
	// s1 is now "killed": no Close, its goroutines simply stop mattering.

	s2 := mustServer(t, Options{})
	if err := s2.Recover(path1); err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("recovered snapshot differs from pre-crash snapshot: %d vs %d bytes", len(b1), len(b2))
	}

	// The recovered service answers from a real fit immediately (warm
	// start), with the row counts it had before the crash.
	res, err := s2.Estimate(context.Background(), "acme", "price", 0, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != "snapshot" {
		t.Fatalf("warm start answered from rung %q, want snapshot", res.Rung)
	}
	a, err := s2.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if a.rows.Load() != 200 {
		t.Fatalf("recovered rows %d, want 200", a.rows.Load())
	}
	if _, err := s2.Estimate(context.Background(), "zeta", "empty", 0, 0.5, false); err != nil {
		t.Fatalf("cold attribute did not survive recovery: %v", err)
	}
}

// TestChaosShutdownUnderLoad pins the graceful-shutdown conservation
// law: every value the server accepted before and during shutdown either
// reaches its reservoir engine or was shed with the shed reported back to
// the caller — accepted == inserted + shed exactly; nothing vanishes
// untracked.
func TestChaosShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.selest")
	s := mustServer(t, Options{QueueCap: 1 << 16})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateAttr("acme", "weight", testAttrCfg()); err != nil {
		t.Fatal(err)
	}

	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			attr := "price"
			if w%2 == 1 {
				attr = "weight"
			}
			batch := seq(32)
			<-start
			for {
				res, err := s.Ingest("acme", attr, batch)
				if err != nil {
					if errors.Is(err, ErrDraining) {
						return
					}
					t.Errorf("ingest: %v", err)
					return
				}
				accepted.Add(int64(res.Queued))
				shed.Add(int64(res.Shed))
			}
		}(w)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let load build up
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx, path); err != nil {
		t.Fatalf("graceful shutdown under load: %v", err)
	}
	wg.Wait()

	var inserted int64
	for _, name := range []string{"price", "weight"} {
		a, err := s.attr("acme", name)
		if err != nil {
			t.Fatal(err)
		}
		inserted += int64(a.est.Inserts())
	}
	if inserted != accepted.Load()-shed.Load() {
		t.Fatalf("shutdown dropped accepted values untracked: %d accepted, %d shed, %d reached the reservoir (want accepted-shed)",
			accepted.Load(), shed.Load(), inserted)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("shutdown did not persist a snapshot: %v", err)
	}
	// And the snapshot is recoverable.
	s2 := mustServer(t, Options{})
	if err := s2.Recover(path); err != nil {
		t.Fatalf("recovering the shutdown snapshot: %v", err)
	}
}

// TestChaosShutdownInflightHTTP pins that requests already past the drain
// gate complete normally during Close: every HTTP request gets a real
// response — 200 before the gate, typed 503 after — never a dropped
// connection, never a 5xx panic.
func TestChaosShutdownInflightHTTP(t *testing.T) {
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(64)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 64)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := []byte(`{"tenant":"acme","attr":"price","lo":0.1,"hi":0.9}`)
	var wg sync.WaitGroup
	var transport, badStatus atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					transport.Add(1)
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					var eb errorBody
					if json.Unmarshal(b, &eb) != nil || eb.Error.Code != "draining" {
						badStatus.Add(1)
					}
				default:
					badStatus.Add(1)
					t.Errorf("status %d body %s", resp.StatusCode, b)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx, ""); err != nil {
		t.Fatalf("Close under HTTP load: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // a beat of post-drain traffic: all 503
	close(stop)
	wg.Wait()
	if transport.Load() != 0 {
		t.Fatalf("%d requests lost their connection during shutdown", transport.Load())
	}
	if badStatus.Load() != 0 {
		t.Fatalf("%d requests got a non-contract response during shutdown", badStatus.Load())
	}
}

// TestChaosSlowTenantIsolation pins admission-control isolation: a tenant
// that exhausts its quota is rejected with an exact Retry-After while
// every other tenant keeps its full budget and latency path.
func TestChaosSlowTenantIsolation(t *testing.T) {
	s := mustServer(t, Options{QuotaRate: 1, QuotaBurst: 5})
	for _, tn := range []string{"slow", "fast"} {
		if err := s.CreateAttr(tn, "price", testAttrCfg()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(tenant string) *http.Response {
		body := fmt.Sprintf(`{"tenant":%q,"attr":"price","lo":0.1,"hi":0.9}`, tenant)
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// The slow tenant hammers: burst of 5 admitted, everything after 429.
	var rejected int
	for i := 0; i < 50; i++ {
		resp := post("slow")
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejected++
			if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
				t.Fatalf("429 without a usable Retry-After (%q)", ra)
			}
		default:
			t.Fatalf("slow tenant got status %d", resp.StatusCode)
		}
	}
	if rejected < 40 {
		t.Fatalf("slow tenant was rejected only %d of 50 times at burst 5", rejected)
	}
	// The fast tenant's bucket is untouched: its full burst still admits.
	for i := 0; i < 5; i++ {
		if resp := post("fast"); resp.StatusCode != http.StatusOK {
			t.Fatalf("fast tenant degraded by slow tenant: status %d on request %d", resp.StatusCode, i+1)
		}
	}
}

// TestChaosTornSnapshot pins crash-safety of the snapshot file format:
// a snapshot truncated at any tested point, or corrupted by a bit flip,
// is diagnosed as catalog.ErrTornSnapshot — and the server then serves
// cold rather than loading garbage.
func TestChaosTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.selest")
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(100)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 100)
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{0, 3, 5, 9, len(whole) / 2, len(whole) - 1}
	for _, cut := range cuts {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.selest", cut))
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := mustServer(t, Options{})
		if err := s2.Recover(torn); !errors.Is(err, catalog.ErrTornSnapshot) {
			t.Fatalf("truncation at byte %d of %d: %v, want ErrTornSnapshot", cut, len(whole), err)
		}
	}

	// A bit flip inside the manifest trips its CRC.
	flipped := append([]byte(nil), whole...)
	flipped[12] ^= 0x40
	flippedPath := filepath.Join(dir, "flipped.selest")
	if err := os.WriteFile(flippedPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	before := telemetry.Default.Snapshot().Counters["selest_server_torn_snapshots_total"]
	s3 := mustServer(t, Options{})
	if err := s3.Recover(flippedPath); !errors.Is(err, catalog.ErrTornSnapshot) {
		t.Fatalf("bit flip: %v, want ErrTornSnapshot", err)
	}
	after := telemetry.Default.Snapshot().Counters["selest_server_torn_snapshots_total"]
	if after <= before {
		t.Fatalf("torn-snapshot counter did not move: %d -> %d", before, after)
	}

	// The server that failed recovery still serves cold.
	if err := s3.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	res, err := s3.Estimate(context.Background(), "acme", "price", 0, 0.5, false)
	if err != nil {
		t.Fatalf("cold serving after torn recovery: %v", err)
	}
	if res.Rung != "uniform" {
		t.Fatalf("cold attribute rung %q, want uniform", res.Rung)
	}

	// A missing file is a cold start, not a torn snapshot.
	if err := mustServer(t, Options{}).Recover(filepath.Join(dir, "nope.selest")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v, want os.ErrNotExist", err)
	}
}
