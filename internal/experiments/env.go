// Package experiments contains one driver per figure and table of the
// paper's evaluation (§5). Each driver regenerates the corresponding data
// series from scratch — data files, sample sets, query workloads,
// estimators — and returns a structured Report that renders as text.
// DESIGN.md §3 maps every driver to the figure it reproduces and states
// the shape that must hold.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"selest/internal/core"
	"selest/internal/dataset"
	"selest/internal/fsort"
	"selest/internal/query"
	"selest/internal/sample"
	"selest/internal/xrand"
)

// Config parameterises an experiment environment.
type Config struct {
	// Seed drives every random choice; the default reproduces the
	// committed EXPERIMENTS.md numbers.
	Seed uint64
	// SampleSize is the estimator sample-set size (paper: 2,000).
	SampleSize int
	// QueryCount is the number of queries per workload (paper: 1,000).
	QueryCount int
	// Methods, when non-empty, restricts the method-sweep drivers
	// (ext-all) to this subset instead of every implemented method.
	Methods []core.Method
	// Parallel is the worker count for drivers and for the per-file /
	// per-method cells inside them. 0 means GOMAXPROCS; 1 forces fully
	// sequential execution. Reports are identical at every setting.
	Parallel int
}

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = dataset.DefaultSeed
	}
	if c.SampleSize == 0 {
		c.SampleSize = 2000
	}
	if c.QueryCount == 0 {
		c.QueryCount = 1000
	}
}

// Env caches data files, sample sets and query workloads across drivers so
// a full run generates each file once. Env is safe for concurrent use:
// each cache entry carries its own sync.Once, so two workers asking for
// the same file wait on one generation while requests for different keys
// generate concurrently (the map mutex is held only for lookup/insert).
type Env struct {
	cfg Config

	mu        sync.Mutex
	files     map[string]*fileEntry
	samples   map[sampleKey]*sampleEntry
	workloads map[workloadKey]*workloadEntry
}

type fileEntry struct {
	once sync.Once
	f    *dataset.File
	err  error
}

type sampleEntry struct {
	once sync.Once
	s    []float64
	err  error
}

type workloadEntry struct {
	once sync.Once
	w    *query.Workload
	err  error
}

type sampleKey struct {
	file string
	n    int
}

type workloadKey struct {
	file string
	size float64
}

// NewEnv returns an environment with the given configuration.
func NewEnv(cfg Config) *Env {
	cfg.applyDefaults()
	return &Env{
		cfg:       cfg,
		files:     make(map[string]*fileEntry),
		samples:   make(map[sampleKey]*sampleEntry),
		workloads: make(map[workloadKey]*workloadEntry),
	}
}

// Config returns the environment configuration (defaults applied).
func (e *Env) Config() Config { return e.cfg }

// workers resolves the configured parallelism to an actual worker count.
func (e *Env) workers() int {
	if e.cfg.Parallel > 0 {
		return e.cfg.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Methods returns the method set the sweep drivers compare: the
// configured subset when one was given, every implemented method
// otherwise.
func (e *Env) Methods() []core.Method {
	if len(e.cfg.Methods) > 0 {
		return append([]core.Method(nil), e.cfg.Methods...)
	}
	return core.Methods()
}

// File returns the named catalog data file, generating it on first use.
func (e *Env) File(name string) (*dataset.File, error) {
	e.mu.Lock()
	ent, ok := e.files[name]
	if !ok {
		ent = &fileEntry{}
		e.files[name] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.f, ent.err = dataset.ByName(name, e.cfg.Seed)
	})
	return ent.f, ent.err
}

// Sample returns a deterministic size-n random sample (without
// replacement) of the named file.
func (e *Env) Sample(name string, n int) ([]float64, error) {
	key := sampleKey{file: name, n: n}
	e.mu.Lock()
	ent, ok := e.samples[key]
	if !ok {
		ent = &sampleEntry{}
		e.samples[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		f, err := e.File(name)
		if err != nil {
			ent.err = err
			return
		}
		r := xrand.New(e.cfg.Seed ^ hashName(name) ^ uint64(n)*0x9e3779b97f4a7c15)
		s, err := sample.WithoutReplacement(r, f.Records, n)
		if err != nil {
			ent.err = fmt.Errorf("experiments: sampling %s: %w", name, err)
			return
		}
		ent.s = s
	})
	return ent.s, ent.err
}

// DefaultSample returns the configured-size sample of the named file.
func (e *Env) DefaultSample(name string) ([]float64, error) {
	return e.Sample(name, e.cfg.SampleSize)
}

// Workload returns the deterministic query workload of the given size
// fraction for the named file, with exact ground truth.
func (e *Env) Workload(name string, size float64) (*query.Workload, error) {
	key := workloadKey{file: name, size: size}
	e.mu.Lock()
	ent, ok := e.workloads[key]
	if !ok {
		ent = &workloadEntry{}
		e.workloads[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		f, err := e.File(name)
		if err != nil {
			ent.err = err
			return
		}
		lo, hi := f.Domain()
		r := xrand.New(e.cfg.Seed ^ hashName(name) ^ uint64(size*1e6))
		// Catalog files live on integer domains, so queries are
		// integer-aligned exactly as the paper's query files are.
		w, err := query.GenerateAligned(f.Records, lo, hi, size, e.cfg.QueryCount, r, true)
		if err != nil {
			ent.err = fmt.Errorf("experiments: workload %s/%v: %w", name, size, err)
			return
		}
		ent.w = w
	})
	return ent.w, ent.err
}

// sortedCopy returns xs sorted ascending in a fresh slice, for the rules
// and builders that take sorted input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	fsort.Float64s(s)
	return s
}

// hashName is a tiny FNV-1a over the file name, decorrelating per-file
// RNG streams.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// PromisingFiles is the file set of the per-file comparison figures
// (8, 9, 11, 12): all synthetic large-domain files plus the real-data
// stand-ins, matching the files the paper reports.
func PromisingFiles() []string {
	return []string{"u(20)", "n(20)", "e(20)", "arap1", "arap2", "rr1(22)", "rr2(22)", "iw"}
}
