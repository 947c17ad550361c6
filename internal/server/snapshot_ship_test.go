// Snapshot-shipping pins: the bytes a peer fetches must be the bytes a
// local SaveSnapshot writes (byte-identical warm boot — the snapshot
// determinism contract, extended over the network, whether the envelope
// travels as a wire snapshot_fetch or a GET /v1/snapshot), a shipped
// stream must recover into a replica that answers from the snapshot rung
// on its first request, and a torn transfer must fail recovery as the
// typed catalog.ErrTornSnapshot rather than booting a silently partial
// replica.
package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"selest/internal/catalog"
)

// shippedServer builds a server with one fitted attribute and returns
// its shipped snapshot bytes.
func shippedServer(t *testing.T) (*Server, []byte) {
	t.Helper()
	s := mustServer(t, Options{})
	if err := s.CreateAttr("acme", "price", testAttrCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "price", seq(128)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "price", 128)
	a, err := s.attr("acme", "price")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.est.Flush(); err != nil {
		t.Fatal(err)
	}
	shipped, err := s.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	return s, shipped
}

func TestSnapshotShipBytesIdenticalToDisk(t *testing.T) {
	s, shipped := shippedServer(t)
	path := filepath.Join(t.TempDir(), "snap.selest")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, disk) {
		t.Fatalf("shipped snapshot differs from disk: %d vs %d bytes (envelope must be deterministic)",
			len(shipped), len(disk))
	}

	// A replica recovered from the shipped bytes must re-serialise to the
	// same bytes: join, save, and the fleet's snapshots are interchangeable.
	joined := mustServer(t, Options{})
	if err := joined.RecoverReader(bytes.NewReader(shipped)); err != nil {
		t.Fatal(err)
	}
	reshipped, err := joined.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, reshipped) {
		t.Fatalf("joined replica re-serialises differently: %d vs %d bytes", len(shipped), len(reshipped))
	}
}

// TestSnapshotShipHTTPMatchesWireAndDisk pins the HTTP front's snapshot
// endpoint, the fetch path for callers that cannot speak the wire
// protocol: GET /v1/snapshot answers 200 with its Content-Length, and the
// body is the same server's wire snapshot_fetch payload and its
// SaveSnapshot file, byte for byte.
func TestSnapshotShipHTTPMatchesWireAndDisk(t *testing.T) {
	s, _ := shippedServer(t)
	// A 1024-value reservoir takes the envelope past the 2 KiB net/http
	// buffers before it chunks a reply, so the Content-Length checked
	// below is the handler's own. No cadence refit fires, so the state
	// holds still across the three fetches.
	bulk := testAttrCfg()
	bulk.ReservoirSize, bulk.RefitEvery = 1024, 1<<20
	if err := s.CreateAttr("acme", "bulk", bulk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("acme", "bulk", seq(1024)); err != nil {
		t.Fatal(err)
	}
	waitInserted(t, s, "acme", "bulk", 1024)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	viaHTTP, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: status %d: %s", resp.StatusCode, viaHTTP)
	}
	if resp.ContentLength != int64(len(viaHTTP)) {
		t.Fatalf("GET /v1/snapshot: Content-Length %d for a %d-byte body", resp.ContentLength, len(viaHTTP))
	}

	_, addr := startWireServer(t, s)
	viaWire, err := wireClient(t, addr).FetchSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.selest")
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaHTTP) == 0 || !bytes.Equal(viaHTTP, viaWire) || !bytes.Equal(viaHTTP, disk) {
		t.Fatalf("snapshot bytes differ: http %d, wire %d, disk %d", len(viaHTTP), len(viaWire), len(disk))
	}
}

func TestSnapshotShipWarmBootServesSnapshotRung(t *testing.T) {
	_, shipped := shippedServer(t)
	joined := mustServer(t, Options{})
	if err := joined.RecoverReader(bytes.NewReader(shipped)); err != nil {
		t.Fatal(err)
	}
	res, err := joined.Estimate(context.Background(), "acme", "price", 0.25, 0.75, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung == "uniform" || res.Generation == 0 {
		t.Fatalf("first request after join answered rung %q generation %d; want a fitted rung",
			res.Rung, res.Generation)
	}
	if res.Rung != "snapshot" {
		t.Fatalf("first request after join answered rung %q, want snapshot", res.Rung)
	}
}

func TestSnapshotShipTornTransfer(t *testing.T) {
	_, shipped := shippedServer(t)
	// Cut the transfer at several depths: inside the magic, inside the
	// manifest, inside the catalog stream, and one byte short of whole.
	for _, cut := range []int{2, len(shipped) / 4, len(shipped) / 2, len(shipped) - 1} {
		joined := mustServer(t, Options{})
		err := joined.RecoverReader(bytes.NewReader(shipped[:cut]))
		if !errors.Is(err, catalog.ErrTornSnapshot) {
			t.Fatalf("transfer cut at %d/%d bytes: err = %v, want ErrTornSnapshot",
				cut, len(shipped), err)
		}
	}
	// A flipped byte inside the manifest region must also refuse (CRC).
	flipped := append([]byte(nil), shipped...)
	flipped[12] ^= 0x40
	joined := mustServer(t, Options{})
	if err := joined.RecoverReader(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupted transfer recovered silently")
	}
}
