package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"selest/internal/catalog"
	"selest/internal/core"
	"selest/internal/telemetry"
)

// ingestAll feeds values in queue-sized chunks, waiting for each chunk
// to reach the reservoir, so nothing is shed.
func ingestAll(t *testing.T, s *Server, tenant, attr string, values []float64) {
	t.Helper()
	a, err := s.attr(tenant, attr)
	if err != nil {
		t.Fatal(err)
	}
	for len(values) > 0 {
		n := min(len(values), 500)
		want := a.est.Inserts() + n
		res, err := s.Ingest(tenant, attr, values[:n])
		if err != nil || res.Shed != 0 {
			t.Fatalf("ingest: %+v, %v", res, err)
		}
		waitInserted(t, s, tenant, attr, want)
		values = values[n:]
	}
}

// around returns n distinct values in [c−0.05, c+0.05).
func around(c float64, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = c - 0.05 + 0.1*float64(i)/float64(n)
	}
	return vs
}

// TestRecoverKeepsStreamLength pins that a recovered reservoir keeps
// sampling the stream it sampled before the restart: the snapshot
// carries the reservoir's stream length, so after 20,000 values near
// 0.25, a save, a recovery and 2,000 values near 0.75, the recovered
// reservoir holds about as many new values as one that never restarted
// (200·2000/22000 ≈ 18). A reservoir that restarted its count at the
// sample size admits the new values with probability ≈ K/(K+i) and holds
// about 180 of them.
func TestRecoverKeepsStreamLength(t *testing.T) {
	cfg := testAttrCfg()
	cfg.ReservoirSize = 200
	cfg.RefitEvery = -1
	s1 := mustServer(t, Options{})
	if err := s1.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s1, "acme", "price", around(0.25, 20000))
	path := filepath.Join(t.TempDir(), "snap.selest")
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s2 := mustServer(t, Options{})
	if err := s2.Recover(path); err != nil {
		t.Fatal(err)
	}
	a2, err := s2.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.est.Seen(); got != 20000 {
		t.Fatalf("recovered stream length %d, want 20000", got)
	}
	// The restored sample is not an insert: the conservation law
	// (inserted == accepted − shed) holds on the recovered server.
	if got := a2.est.Inserts(); got != 0 {
		t.Fatalf("recovery counted %d inserts, want 0", got)
	}
	for _, s := range []*Server{s1, s2} {
		ingestAll(t, s, "acme", "price", around(0.75, 2000))
	}
	for name, s := range map[string]*Server{"never restarted": s1, "recovered": s2} {
		a, err := s.attr("acme", "price")
		if err != nil {
			t.Fatal(err)
		}
		fresh := 0
		for _, v := range a.est.ReservoirValues() {
			if v > 0.5 {
				fresh++
			}
		}
		if fresh < 5 || fresh > 40 {
			t.Errorf("%s reservoir holds %d of the 2000 post-save values, want about 18", name, fresh)
		}
	}
}

// fitTotal sums selest_fit_total over methods.
func fitTotal(methods []core.Method) int64 {
	var n int64
	for _, m := range methods {
		n += telemetry.Default.Counter(telemetry.Label("selest_fit_total", "method", string(m))).Value()
	}
	return n
}

// TestSnapshotsFitNothing pins the cost of persistence in fits: saving
// and fetching a snapshot fit nothing, and recovery fits each attribute
// once, leaving it at generation 1. The attributes use methods no other
// server test configures, so their fit counters move only here.
func TestSnapshotsFitNothing(t *testing.T) {
	methods := []core.Method{core.MaxDiff, core.FrequencyPolygon}
	s1 := mustServer(t, Options{})
	for _, m := range methods {
		cfg := testAttrCfg()
		cfg.Method = m
		cfg.RefitEvery = -1 // only the fill refit, which finishes before the inserts count
		if err := s1.CreateAttr("fits", string(m), cfg); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, s1, "fits", string(m), seq(200))
	}
	path := filepath.Join(t.TempDir(), "snap.selest")
	before := fitTotal(methods)
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.SnapshotBytes(); err != nil {
		t.Fatal(err)
	}
	if d := fitTotal(methods) - before; d != 0 {
		t.Fatalf("a save and a fetch fitted %d times, want 0", d)
	}
	s2 := mustServer(t, Options{})
	before = fitTotal(methods)
	if err := s2.Recover(path); err != nil {
		t.Fatal(err)
	}
	if d := fitTotal(methods) - before; d != int64(len(methods)) {
		t.Fatalf("recovering %d attributes fitted %d times, want one each", len(methods), d)
	}
	for _, m := range methods {
		a, err := s2.attr("fits", string(m))
		if err != nil {
			t.Fatal(err)
		}
		if g := a.est.Generation(); g != 1 {
			t.Fatalf("%s: generation %d after recovery, want 1", m, g)
		}
	}
}

// TestSaveSnapshotCopiesNothing: a save writes each reservoir's sorted
// view in place, so a second save of an unchanged server with eight
// reservoirs of 2^16 values (4 MiB of samples) allocates under 1 MiB.
func TestSaveSnapshotCopiesNothing(t *testing.T) {
	const attrs, n = 8, 1 << 16
	s := mustServer(t, Options{})
	values := seq(n)
	for i := 0; i < attrs; i++ {
		cfg := testAttrCfg()
		cfg.ReservoirSize, cfg.RefitEvery = n, -1 // only the fill refit
		name := fmt.Sprintf("a%d", i)
		if err := s.CreateAttr("big", name, cfg); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, s, "big", name, values)
		waitGeneration(t, s, "big", name, 1)
	}
	path := filepath.Join(t.TempDir(), "snap.selest")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a save of %d reservoirs of %d values allocated %d bytes, want under 1 MiB", attrs, n, got)
	}
}

// TestSnapshotsDuringRefits saves while ingests refit the same
// reservoir, so a save and a refit ask for its sorted view at once (run
// under -race). Every saved sample is sorted, as many as its reservoir
// holds, and the reservoir's own view at the end matches the last save.
func TestSnapshotsDuringRefits(t *testing.T) {
	s := mustServer(t, Options{})
	cfg := testAttrCfg()
	cfg.ReservoirSize, cfg.RefitEvery = 512, 96 // replaces under an eighth between refits
	if err := s.CreateAttr("acme", "price", cfg); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		values := seq(4096)
		for i := 0; i < len(values); i += 64 {
			if _, err := s.Ingest("acme", "price", values[i:i+64]); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Estimate(context.Background(), "acme", "price", 0.2, 0.4, true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(b []byte) []float64 {
		t.Helper()
		man, entries, err := readSnapshot(bytes.NewReader(b))
		if err != nil || len(man) != 1 {
			t.Fatalf("snapshot: %d attributes, %v", len(man), err)
		}
		e := entries[[2]string{"acme", "price"}]
		if e == nil {
			return nil // saved before the first value arrived
		}
		if !slices.IsSorted(e.Samples) || len(e.Samples) > cfg.ReservoirSize {
			t.Fatalf("saved sample of %d values is not a sorted reservoir", len(e.Samples))
		}
		return e.Samples
	}
	for saving := true; saving; {
		select {
		case <-done:
			saving = false
		default:
		}
		b, err := s.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		check(b)
	}
	waitInserted(t, s, "acme", "price", 4096)
	b, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := check(b), a.est.ReservoirSorted(); !slices.Equal(got, want) {
		t.Fatalf("last save holds %d values, the reservoir's view %d", len(got), len(want))
	}
}

// waitGeneration polls until the attribute serves a fit of at least the
// given generation: the fill refit runs on the drainer after the values
// it fits count as inserted.
func waitGeneration(t *testing.T, s *Server, tenant, attr string, gen uint64) {
	t.Helper()
	a, err := s.attr(tenant, attr)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.est.Generation() < gen {
		if time.Now().After(deadline) {
			t.Fatalf("%s/%s: generation %d, want %d", tenant, attr, a.est.Generation(), gen)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoverOlderSnapshot recovers a snapshot written before snapshots
// stopped fitting (entries under their configured methods) and before
// the manifest carried stream lengths: testdata/snapshot-v1-noseen.selest,
// from a kernel attribute and an equi-depth attribute over 2-shard
// reservoirs and a cold attribute. Their configs still carry the retired
// shards and promote_after fields, which recovery ignores. Each sampled
// attribute serves a fit of exactly its saved sample, over a stream of
// just that sample.
func TestRecoverOlderSnapshot(t *testing.T) {
	const path = "testdata/snapshot-v1-noseen.selest"
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	man, entries, err := readSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, Options{})
	if err := s.Recover(path); err != nil {
		t.Fatal(err)
	}
	for _, m := range man {
		a, err := s.attr(m.Tenant, m.Attr)
		if err != nil {
			t.Fatal(err)
		}
		if a.rows.Load() != m.Rows {
			t.Fatalf("%s/%s: rows %d, want %d", m.Tenant, m.Attr, a.rows.Load(), m.Rows)
		}
		e, ok := entries[[2]string{m.Tenant, m.Attr}]
		if !ok {
			if a.est.ReservoirLen() != 0 {
				t.Fatalf("%s/%s: cold attribute recovered %d values", m.Tenant, m.Attr, a.est.ReservoirLen())
			}
			continue
		}
		got := a.est.ReservoirValues()
		slices.Sort(got)
		if !slices.Equal(got, e.Samples) || a.est.Seen() != len(e.Samples) {
			t.Fatalf("%s/%s: recovered %d values over a stream of %d, want the %d saved", m.Tenant, m.Attr, len(got), a.est.Seen(), len(e.Samples))
		}
		res, err := s.Estimate(context.Background(), m.Tenant, m.Attr, 0, 0.5, false)
		if err != nil || res.Rung != "snapshot" || res.Generation != 1 {
			t.Fatalf("%s/%s: %+v, %v; want a generation-1 snapshot answer", m.Tenant, m.Attr, res, err)
		}
	}
}

// TestSnapshotLoadsThroughCatalogLoad reads a snapshot the way a binary
// from before this format change does: the manifest into a struct
// without the stream length, the sample stream through catalog.Load,
// which fits every entry under its stored method.
func TestSnapshotLoadsThroughCatalogLoad(t *testing.T) {
	s := mustServer(t, Options{})
	eq := testAttrCfg()
	eq.Method = core.EquiDepth
	for attr, cfg := range map[string]AttrConfig{"price": testAttrCfg(), "weight": eq} {
		if err := s.CreateAttr("acme", attr, cfg); err != nil {
			t.Fatal(err)
		}
		ingestAll(t, s, "acme", attr, seq(100))
	}
	if err := s.CreateAttr("zeta", "empty", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	b, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b[len(snapshotMagic)+2:])
	var manLen uint32
	if err := binary.Read(r, binary.LittleEndian, &manLen); err != nil {
		t.Fatal(err)
	}
	manifest := make([]byte, manLen)
	if _, err := r.Read(manifest); err != nil {
		t.Fatal(err)
	}
	var man []struct {
		Tenant string     `json:"tenant"`
		Attr   string     `json:"attr"`
		Config AttrConfig `json:"config"`
		Rows   int64      `json:"rows"`
	}
	if err := json.Unmarshal(manifest, &man); err != nil || len(man) != 3 {
		t.Fatalf("manifest: %d attributes, %v", len(man), err)
	}
	if _, err := r.Seek(4, 1); err != nil { // the manifest CRC
		t.Fatal(err)
	}
	cat, err := catalog.Load(r)
	if err != nil {
		t.Fatalf("catalog.Load: %v", err)
	}
	if cat.Len() != 2 {
		t.Fatalf("catalog holds %d entries, want the 2 sampled attributes", cat.Len())
	}
	for _, attr := range []string{"price", "weight"} {
		est, err := cat.Estimator("acme", attr)
		if err != nil || est.Name() != string(core.Sampling) {
			t.Fatalf("%s: %v, %v; want a sampling fit", attr, est, err)
		}
	}
}
