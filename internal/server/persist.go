// Snapshot persistence: the server's crash-safe on-disk state is a small
// envelope — a JSON manifest of every attribute's serving configuration —
// followed by a standard catalog stream carrying each attribute's
// reservoir sample. Both halves are independently checksummed (CRC32 for
// the manifest, the catalog's own footer for the sample data) and the
// whole file is written through catalog.AtomicWriteFile, so a kill at any
// instant leaves either the previous snapshot whole or the new one whole.
//
// Saving fits nothing: the samples go through the catalog's stream codec
// (catalog.WriteEntries) rather than Catalog.Put, and recovery reads them
// back the same way and fits each attribute once, from its manifest
// config. Entries are stored under the sampling method with no rule or
// bandwidth — a fit any sample supports — so a binary whose recovery
// loads the stream through catalog.Load, which fits every entry, still
// reads these files.
//
// Determinism is a design requirement, not an accident: attributes are
// serialised in sorted (tenant, attr) order and each reservoir's sample
// is written as its sorted view (radix-key order, −0 before +0), so
// saving, restarting, and saving again yields bit-identical files — the
// property the chaos suite's kill-and-restart check pins. The view is
// the one the next refit fits: a save merges the records replaced since
// the last view into it, or sorts the reservoir once, and copies
// nothing.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"selest/internal/catalog"
	"selest/internal/core"
)

var snapshotMagic = [4]byte{'S', 'E', 'L', 'S'}

const snapshotVersion = 1

// manifestAttr is one attribute's persisted identity: enough to rebuild
// its serving machinery (the AttrConfig) plus the stream cardinality and
// the reservoir's stream length, which the sample alone cannot recall.
// Snapshots that predate Seen omit it and recover as a stream of just
// their sample.
type manifestAttr struct {
	Tenant string     `json:"tenant"`
	Attr   string     `json:"attr"`
	Config AttrConfig `json:"config"`
	Rows   int64      `json:"rows"`
	Seen   int64      `json:"seen,omitempty"`
}

// SaveSnapshot persists the whole service crash-safely to path. It is
// safe to call while serving: each attribute's reservoir is snapshotted
// independently (the file is per-attribute consistent, not a cross-
// attribute barrier — the same contract the lock-free catalog gives).
func (s *Server) SaveSnapshot(path string) error {
	attrs := s.attributes()
	err := catalog.AtomicWriteFile(path, func(w io.Writer) error {
		return s.writeSnapshot(w, attrs)
	})
	if err == nil {
		srvSnapshotSaves.Inc()
	}
	return err
}

// SnapshotBytes serialises the whole service into the same SELS envelope
// SaveSnapshot writes to disk, in memory. This is the payload of
// snapshot shipping (OpSnapshotFetch / GET /v1/snapshot): because the
// envelope is deterministic — sorted attributes, sorted samples — the
// bytes a peer fetches are identical to the bytes a local SaveSnapshot
// would have written, and the chaos suite pins that with bytes.Equal.
func (s *Server) SnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.writeSnapshot(&buf, s.attributes()); err != nil {
		return nil, err
	}
	srvSnapshotFetches.Inc()
	return buf.Bytes(), nil
}

func (s *Server) writeSnapshot(w io.Writer, attrs []*attribute) error {
	man := make([]manifestAttr, 0, len(attrs))
	var entries []*catalog.Entry
	for _, a := range attrs {
		rows := a.rows.Load()
		// The stream length is read before the sample, so it never counts
		// a record the sample has not seen.
		man = append(man, manifestAttr{
			Tenant: a.tenant,
			Attr:   a.name,
			Config: a.cfg,
			Rows:   rows,
			Seen:   int64(a.est.Seen()),
		})
		if a.est.ReservoirLen() == 0 {
			// Cold attribute: config survives via the manifest; there is
			// no sample to store.
			continue
		}
		smp := a.est.ReservoirSorted()
		entries = append(entries, &catalog.Entry{
			Table:    a.tenant,
			Column:   a.name,
			Samples:  smp,
			DomainLo: a.cfg.DomainLo,
			DomainHi: a.cfg.DomainHi,
			Method:   core.Sampling,
			Boundary: a.cfg.Boundary,
			Bins:     a.cfg.Bins,
			RowCount: rows,
		})
	}
	manifest, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("server: snapshot manifest: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(snapshotVersion)); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(manifest))); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if _, err := bw.Write(manifest); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(manifest)); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := catalog.WriteEntries(bw, entries); err != nil {
		return err
	}
	return bw.Flush()
}

// readSnapshot parses a snapshot stream into its manifest and its
// catalog entries, keyed by (tenant, attr), diagnosing partial writes as
// catalog.ErrTornSnapshot.
func readSnapshot(r io.Reader) ([]manifestAttr, map[[2]string]*catalog.Entry, error) {
	br := bufio.NewReader(r)
	torn := func(err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %v", catalog.ErrTornSnapshot, err)
		}
		return err
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("server: read snapshot magic: %w", torn(err))
	}
	if magic != snapshotMagic {
		return nil, nil, fmt.Errorf("server: bad snapshot magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, nil, fmt.Errorf("server: %w", torn(err))
	}
	if version != snapshotVersion {
		return nil, nil, fmt.Errorf("server: unsupported snapshot version %d", version)
	}
	var manLen uint32
	if err := binary.Read(br, binary.LittleEndian, &manLen); err != nil {
		return nil, nil, fmt.Errorf("server: %w", torn(err))
	}
	const maxManifest = 64 << 20
	if manLen > maxManifest {
		return nil, nil, fmt.Errorf("server: manifest length %d exceeds limit", manLen)
	}
	manifest := make([]byte, manLen)
	if _, err := io.ReadFull(br, manifest); err != nil {
		return nil, nil, fmt.Errorf("server: read manifest: %w", torn(err))
	}
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, nil, fmt.Errorf("server: %w", torn(err))
	}
	if got := crc32.ChecksumIEEE(manifest); got != sum {
		return nil, nil, fmt.Errorf("server: %w: manifest checksum mismatch (file %08x, computed %08x)", catalog.ErrTornSnapshot, sum, got)
	}
	var man []manifestAttr
	if err := json.Unmarshal(manifest, &man); err != nil {
		return nil, nil, fmt.Errorf("server: decode manifest: %w", err)
	}
	list, err := catalog.ReadEntries(br)
	if err != nil {
		return nil, nil, err
	}
	entries := make(map[[2]string]*catalog.Entry, len(list))
	for _, e := range list {
		entries[[2]string{e.Table, e.Column}] = e
	}
	return man, entries, nil
}

// Recover warm-starts the server from a snapshot file: every manifest
// attribute is recreated with its persisted configuration, its reservoir
// is refilled from the catalog sample with its stream length, its
// estimator is fitted once right away (queries answer from the fit rung
// immediately, not from uniform), and its row count is restored. Missing
// files return os.ErrNotExist for the caller to treat as a cold start;
// torn files return catalog.ErrTornSnapshot so the caller can decide
// between failing loudly and serving cold.
func (s *Server) Recover(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.RecoverReader(f)
}

// RecoverReader warm-starts the server from a snapshot stream — the same
// recovery as Recover, minus the file. It is how `selestd -join` boots
// from a peer's shipped snapshot: the envelope's CRCs verify the
// transfer (a truncated or corrupted stream is catalog.ErrTornSnapshot,
// never a silent partial recovery), so shipping needs no checksum of its
// own.
func (s *Server) RecoverReader(r io.Reader) error {
	man, entries, err := readSnapshot(r)
	if err != nil {
		if errors.Is(err, catalog.ErrTornSnapshot) {
			srvTornSnapshots.Inc()
		}
		return err
	}
	for _, m := range man {
		if err := s.CreateAttr(m.Tenant, m.Attr, m.Config); err != nil {
			return fmt.Errorf("server: recover %s/%s: %w", m.Tenant, m.Attr, err)
		}
		a, err := s.attr(m.Tenant, m.Attr)
		if err != nil {
			return err
		}
		if entry, ok := entries[[2]string{m.Tenant, m.Attr}]; ok {
			// The sample is at most one reservoir, so every value is
			// kept deterministically — no RNG is consumed and a re-save
			// reproduces the file byte for byte. Refit errors here are
			// not fatal: the values are in the reservoir, the ladder
			// owns builder failures, and the reservoir rung answers
			// until a fit lands — recovery restores state, availability
			// is the ladder's job.
			if err := a.est.Restore(entry.Samples, int(m.Seen)); err != nil {
				srvDrainDrop.Inc()
			}
		}
		a.rows.Store(m.Rows)
	}
	srvRecoveries.Inc()
	return nil
}
