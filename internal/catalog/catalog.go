// Package catalog is a persistent statistics catalog: it stores, per
// (table, column), everything needed to rebuild a selectivity estimator —
// the sample set, the domain, and the estimator configuration — and
// rebuilds estimators on load. This is the role the paper's estimators
// play inside a database system: statistics are collected once (ANALYZE),
// persisted, and consulted by the optimiser until refreshed.
//
// Persisting the *sample plus configuration* rather than the fitted
// structure keeps the format estimator-agnostic (kernel estimators are
// their samples; histograms rebuild in microseconds) and lets a newer
// binary rebuild stats with improved rules without re-sampling the table.
package catalog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"selest/internal/core"
	"selest/internal/dataset"
	"selest/internal/kde"
)

// ErrTornSnapshot is the typed partial-write diagnosis: Load wraps it when
// a snapshot file ends mid-entry or fails its checksum — the signature a
// crash left mid-Save before SaveFile was made atomic, or of on-disk
// corruption. Callers distinguish "torn file, fall back to cold start"
// (errors.Is(err, ErrTornSnapshot)) from "no snapshot at all"
// (os.IsNotExist) and from a genuinely malformed file.
var ErrTornSnapshot = errors.New("torn snapshot (partial write or corruption)")

// Entry is the persisted statistics record of one column.
type Entry struct {
	// Table and Column name the attribute.
	Table, Column string
	// Samples is the stored sample set.
	Samples []float64
	// DomainLo/DomainHi bound the attribute domain at collection time.
	DomainLo, DomainHi float64
	// Method, Rule, Boundary, Bins, Bandwidth mirror core.Options.
	Method    core.Method
	Rule      core.BandwidthRule
	Boundary  kde.BoundaryMode
	Bins      int
	Bandwidth float64
	// RowCount is the table cardinality at collection time, used to scale
	// selectivities into row estimates.
	RowCount int64
}

// Options converts the entry back to build options.
func (e *Entry) Options() core.Options {
	return core.Options{
		Method:    e.Method,
		DomainLo:  e.DomainLo,
		DomainHi:  e.DomainHi,
		Bins:      e.Bins,
		Bandwidth: e.Bandwidth,
		Rule:      e.Rule,
		Boundary:  e.Boundary,
	}
}

// Build rebuilds the estimator from the entry.
func (e *Entry) Build() (core.Estimator, error) {
	return core.Build(e.Samples, e.Options())
}

// key identifies an entry.
type key struct{ table, column string }

// catState is the immutable unit of publication: both maps are built
// fresh by every writer and never mutated after the atomic swap, so a
// reader holding one sees entries and their built estimators in exact
// correspondence, with no locks on the lookup path. This is the same
// snapshot pattern the online serving engine uses (DESIGN.md §11):
// optimiser lookups are the hot path, ANALYZE-style writes are rare, and
// Go's GC retires superseded states once the last reader drops them.
type catState struct {
	entries map[key]*Entry
	// built caches rebuilt estimators per entry.
	built map[key]core.Estimator
}

// Catalog is an in-memory statistics catalog with binary persistence.
// It is safe for concurrent use: reads (Estimator, EstimateRows, Entry,
// Columns, Save) are lock-free atomic snapshot loads; writes (Put, Drop)
// serialize on a mutex, copy the current state, and publish the
// replacement with one atomic swap.
type Catalog struct {
	mu    sync.Mutex // serializes writers only
	state atomic.Pointer[catState]
}

// New returns an empty catalog.
func New() *Catalog {
	c := &Catalog{}
	c.state.Store(&catState{
		entries: make(map[key]*Entry),
		built:   make(map[key]core.Estimator),
	})
	return c
}

// mutate runs fn over a private copy of the current state under the
// writer mutex and publishes the result. Readers see either the old
// state whole or the new state whole.
func (c *Catalog) mutate(fn func(*catState)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.state.Load()
	next := &catState{
		entries: make(map[key]*Entry, len(old.entries)+1),
		built:   make(map[key]core.Estimator, len(old.built)+1),
	}
	for k, v := range old.entries {
		next.entries[k] = v
	}
	for k, v := range old.built {
		next.built[k] = v
	}
	fn(next)
	c.state.Store(next)
}

// Put validates and stores an entry, replacing any previous statistics for
// the same (table, column). The entry's estimator must build. The build
// runs before the writer lock is taken, so a slow fit never blocks
// concurrent Puts of other columns' readers.
func (c *Catalog) Put(e *Entry) error {
	if e == nil {
		return fmt.Errorf("catalog: nil entry")
	}
	if e.Table == "" || e.Column == "" {
		return fmt.Errorf("catalog: entry needs table and column names")
	}
	if len(e.Samples) == 0 {
		return fmt.Errorf("catalog: entry %s.%s has no samples", e.Table, e.Column)
	}
	if !(e.DomainHi > e.DomainLo) {
		return fmt.Errorf("catalog: entry %s.%s has empty domain", e.Table, e.Column)
	}
	est, err := e.Build()
	if err != nil {
		return fmt.Errorf("catalog: entry %s.%s does not build: %w", e.Table, e.Column, err)
	}
	cp := *e
	cp.Samples = append([]float64(nil), e.Samples...)
	c.mutate(func(st *catState) {
		k := key{e.Table, e.Column}
		st.entries[k] = &cp
		st.built[k] = est
	})
	return nil
}

// Estimator returns the (cached) estimator for a column. The lookup is
// one atomic load and a map read — no locks.
func (c *Catalog) Estimator(table, column string) (core.Estimator, error) {
	if est, ok := c.state.Load().built[key{table, column}]; ok {
		return est, nil
	}
	return nil, fmt.Errorf("catalog: no statistics for %s.%s", table, column)
}

// Entry returns a copy of the stored entry for a column.
func (c *Catalog) Entry(table, column string) (*Entry, error) {
	e, ok := c.state.Load().entries[key{table, column}]
	if !ok {
		return nil, fmt.Errorf("catalog: no statistics for %s.%s", table, column)
	}
	cp := *e
	cp.Samples = append([]float64(nil), e.Samples...)
	return &cp, nil
}

// EstimateRows returns the estimated result size of a range predicate on a
// column, scaled by the recorded row count. One state load covers both
// lookups, so the estimator and row count always belong together even
// when a Put lands mid-call.
func (c *Catalog) EstimateRows(table, column string, a, b float64) (float64, error) {
	st := c.state.Load()
	est, ok := st.built[key{table, column}]
	if !ok {
		return 0, fmt.Errorf("catalog: no statistics for %s.%s", table, column)
	}
	return est.Selectivity(a, b) * float64(st.entries[key{table, column}].RowCount), nil
}

// Drop removes a column's statistics; it is a no-op if absent.
func (c *Catalog) Drop(table, column string) {
	c.mutate(func(st *catState) {
		delete(st.entries, key{table, column})
		delete(st.built, key{table, column})
	})
}

// Len returns the number of entries.
func (c *Catalog) Len() int {
	return len(c.state.Load().entries)
}

// Columns lists the stored (table, column) pairs sorted lexicographically.
func (c *Catalog) Columns() [][2]string {
	return c.state.Load().columns()
}

// columns lists the state's (table, column) pairs sorted
// lexicographically. Save iterates one loaded state through this, so it
// writes a point-in-time snapshot without blocking writers — the
// RWMutex-era deadlock between Save and a queued writer is structurally
// gone.
func (st *catState) columns() [][2]string {
	out := make([][2]string, 0, len(st.entries))
	for k := range st.entries {
		out = append(out, [2]string{k.table, k.column})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Binary format:
//
//	magic   [4]byte "SELC"
//	version uint16
//	count   uint32
//	per entry:
//	  table, column, method, rule:  uint16 len + bytes each
//	  boundary  uint8
//	  bins      int32
//	  bandwidth float64
//	  domainLo, domainHi float64
//	  rowCount  int64
//	  nSamples  uint32, samples []float64
//	crc32 (IEEE) uint32 over everything after the version field
//	  (version ≥ 2 only; version 1 files carry no checksum)

var catalogMagic = [4]byte{'S', 'E', 'L', 'C'}

const catalogVersion = 2

// Save writes the whole catalog — one atomically loaded state, so the
// file is a consistent point-in-time snapshot even while writers land —
// as one WriteEntries stream in (table, column) order.
func (c *Catalog) Save(w io.Writer) error {
	st := c.state.Load()
	cols := st.columns()
	entries := make([]*Entry, len(cols))
	for i, tc := range cols {
		entries[i] = st.entries[key{tc[0], tc[1]}]
	}
	return WriteEntries(w, entries)
}

// WriteEntries writes entries, in the order given, as one SELC stream:
// the format Save writes and Load and ReadEntries read. It builds no
// estimator. The stream ends with a CRC32 footer, so a reader can
// diagnose a partial write (a crash mid-write, a truncated copy) as
// ErrTornSnapshot instead of silently rebuilding from half a catalog.
func WriteEntries(w io.Writer, entries []*Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(catalogMagic[:]); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(catalogVersion)); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	// Everything after the version flows through the checksum.
	sum := crc32.NewIEEE()
	cw := io.MultiWriter(bw, sum)
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(entries))); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	for _, e := range entries {
		for _, s := range []string{e.Table, e.Column, string(e.Method), string(e.Rule)} {
			if len(s) > math.MaxUint16 {
				return fmt.Errorf("catalog: string too long")
			}
			if err := binary.Write(cw, binary.LittleEndian, uint16(len(s))); err != nil {
				return fmt.Errorf("catalog: %w", err)
			}
			if _, err := io.WriteString(cw, s); err != nil {
				return fmt.Errorf("catalog: %w", err)
			}
		}
		if _, err := cw.Write([]byte{byte(e.Boundary)}); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		for _, v := range []any{int32(e.Bins), e.Bandwidth, e.DomainLo, e.DomainHi, e.RowCount, uint32(len(e.Samples))} {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return fmt.Errorf("catalog: %w", err)
			}
		}
		if err := binary.Write(cw, binary.LittleEndian, e.Samples); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum32()); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return bw.Flush()
}

// crcReader hashes every byte read through it, so Load can verify the
// footer checksum without buffering the stream twice.
type crcReader struct {
	r   io.Reader
	sum hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.sum.Write(p[:n])
	}
	return n, err
}

// torn wraps EOF-shaped read errors as ErrTornSnapshot: a stream that ends
// mid-structure is the signature of a partial write, not of a different
// format.
func torn(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTornSnapshot, err)
	}
	return err
}

// Load reads a catalog and rebuilds every estimator. A stream that ends
// mid-entry or fails its checksum returns an error wrapping
// ErrTornSnapshot (see ReadEntries), so recovery code can tell a
// crash-torn file from a missing or foreign one.
func Load(r io.Reader) (*Catalog, error) {
	entries, err := ReadEntries(r)
	if err != nil {
		return nil, err
	}
	c := New()
	for _, e := range entries {
		if err := c.Put(e); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ReadEntries reads a SELC stream's entries in stream order, building
// no estimator. A stream that ends mid-entry or fails its checksum
// returns an error wrapping ErrTornSnapshot. Version-1 streams
// (pre-checksum) still read; their truncations are detected structurally
// only.
func ReadEntries(r io.Reader) ([]*Entry, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("catalog: read magic: %w", torn(err))
	}
	if magic != catalogMagic {
		return nil, fmt.Errorf("catalog: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("catalog: %w", torn(err))
	}
	if version != 1 && version != catalogVersion {
		return nil, fmt.Errorf("catalog: unsupported version %d", version)
	}
	// Everything after the version flows through the checksum reader; for
	// version-1 files the sum is computed and discarded.
	cr := &crcReader{r: br, sum: crc32.NewIEEE()}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("catalog: %w", torn(err))
	}
	const maxEntries = 1 << 20
	if count > maxEntries {
		return nil, fmt.Errorf("catalog: entry count %d exceeds limit", count)
	}
	var entries []*Entry
	readString := func() (string, error) {
		var n uint16
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	for i := uint32(0); i < count; i++ {
		var e Entry
		var err error
		var method, rule string
		if e.Table, err = readString(); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		if e.Column, err = readString(); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		if method, err = readString(); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		if rule, err = readString(); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		e.Method = core.Method(method)
		e.Rule = core.BandwidthRule(rule)
		var boundary [1]byte
		if _, err := io.ReadFull(cr, boundary[:]); err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		e.Boundary = kde.BoundaryMode(boundary[0])
		var bins int32
		var nSamples uint32
		for _, dst := range []any{&bins, &e.Bandwidth, &e.DomainLo, &e.DomainHi, &e.RowCount, &nSamples} {
			if err := binary.Read(cr, binary.LittleEndian, dst); err != nil {
				return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
			}
		}
		e.Bins = int(bins)
		e.Samples, err = dataset.ReadFloats(cr, uint64(nSamples))
		if err != nil {
			return nil, fmt.Errorf("catalog: entry %d: %w", i, torn(err))
		}
		entries = append(entries, &e)
	}
	if version >= 2 {
		want := cr.sum.Sum32()
		var got uint32
		if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
			return nil, fmt.Errorf("catalog: read checksum: %w", torn(err))
		}
		if got != want {
			return nil, fmt.Errorf("catalog: %w: checksum mismatch (file %08x, computed %08x)", ErrTornSnapshot, got, want)
		}
	}
	return entries, nil
}

// AtomicWriteFile writes a file crash-safely: the content goes to a
// temporary file in the destination directory, is fsynced, and is renamed
// over path in one atomic step, with the directory fsynced afterwards so
// the rename itself survives a crash. Readers therefore see either the
// previous file whole or the new file whole — never a torn hybrid. The
// server's snapshot persistence shares this helper.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("catalog: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	tmp = "" // renamed; nothing to clean up
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is best-effort: some filesystems refuse it, and
		// the rename is already durable on the common ones.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// SaveFile writes the catalog to path crash-safely: a kill at any point
// leaves either the previous snapshot or the new one, never a torn file.
func (c *Catalog) SaveFile(path string) error {
	return AtomicWriteFile(path, c.Save)
}

// LoadFile reads a catalog from path.
func LoadFile(path string) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	return Load(f)
}
