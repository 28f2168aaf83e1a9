package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// cacheMode says how a workload's passes use the result cache.
type cacheMode int

const (
	noCache   cacheMode = iota // every cell simulates
	fullCache                  // every cell is a disk hit
	halfCache                  // half the points hit; the rest simulate and are stored
)

// workloadDef is one benchmark workload. README.md says why each exists
// and which layers it exercises or bypasses.
type workloadDef struct {
	name  string
	par   int  // executor workers, and the run's GOMAXPROCS
	dse   bool // seeded sample of the design space, else the five case studies
	cache cacheMode
	// perSystem passes make one RunSystems call per system, timed apart,
	// so the host can be probed between calls (see hostClock).
	perSystem bool
}

// A pass where every cell hits starts no executor worker, so dse-warm
// has one: its store is filled by one worker in set-up, and its passes
// run on one P. On a busy 2-vCPU host, a P beyond the workers made
// single-worker passes up to 1.8 times slower than on one P.
//
// A fig5-cold pass takes seconds, longer than the host keeps one speed,
// so it runs one system at a time. With one worker and no cache, that is
// the same work: the worker builds one simulator per system either way
// and Resets it between that system's kernels.
var workloadDefs = []workloadDef{
	{name: "fig5-cold", par: 1, perSystem: true},
	{name: "dse-cold", par: 2, dse: true},
	{name: "dse-warm", par: 1, dse: true, cache: fullCache},
	{name: "dse-incremental", par: 2, dse: true, cache: halfCache},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// perStratum is how many design points the dse-* workloads draw from
// each stratum (see strata). One keeps a dse-cold pass under a second:
// the host's speed changes within seconds, and the probes between
// passes follow it better the shorter a pass is.
const perStratum = 1

// scale fixes how many cells a pass has: the full benchmark, or the tiny
// -short variant the tests run.
type scale struct {
	dseKernels  []string
	fig5Kernels []string
}

func scaleFor(short bool) scale {
	if short {
		return scale{dseKernels: []string{"reduction"}, fig5Kernels: harness.QuickKernels()}
	}
	return scale{dseKernels: harness.QuickKernels(), fig5Kernels: workload.Names()}
}

// state is what a workload's set-up leaves for its passes.
type state struct {
	def      workloadDef
	systems  []systems.System
	kernels  []string
	programs []*workload.Program
	// dir holds the result store: the filled store for fullCache, the
	// half-filled template for halfCache. Empty without a cache.
	dir string
	// fill is the cold result of every cell, when set-up simulated all of
	// them (fullCache); the cache-exactness check compares against it.
	fill []harness.Cell
}

// setup does everything a workload needs before its first pass: choose
// the design points, open every kernel's program and, for the cached
// workloads, fill a result store under work. Spans go to tr when it is
// not nil.
func setup(def workloadDef, seed int64, sc scale, work string, tr *tracer) (*state, error) {
	st := &state{def: def, kernels: sc.fig5Kernels, systems: systems.CaseStudies()}
	if def.dse {
		st.kernels = sc.dseKernels
		g, err := dseGrid()
		if err != nil {
			return nil, err
		}
		id := tr.begin("systems.enumerate", 0, -1, 0)
		points, _ := g.Enumerate()
		tr.end(id)
		if st.systems, err = samplePoints(points, seed, perStratum); err != nil {
			return nil, err
		}
	}
	for _, k := range st.kernels {
		id := tr.begin("workload.open", 0, -1, 0)
		p, err := workload.Open(k)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		st.programs = append(st.programs, p)
	}
	if def.cache == noCache {
		return st, nil
	}
	fill := st.systems
	st.dir = filepath.Join(work, "store")
	if def.cache == halfCache {
		fill = seededHalf(st.systems, seed)
		st.dir = filepath.Join(work, "template")
	}
	id := tr.begin("rescache.open", 0, -1, 0)
	store, err := rescache.Open(st.dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cells, err := harness.Executor{Par: def.par, Cache: store}.RunSystems(fill, st.kernels)
	if err != nil {
		return nil, fmt.Errorf("filling the result store: %w", err)
	}
	if err := store.Err(); err != nil {
		return nil, err
	}
	if def.cache == fullCache {
		st.fill = cells
	}
	return st, nil
}

// cells is the number of cells in one pass.
func (st *state) cells() int { return len(st.systems) * len(st.kernels) }

// storeDir is the store a pass opens.
func (st *state) storeDir() string {
	if st.def.cache == halfCache {
		return filepath.Join(filepath.Dir(st.dir), "store")
	}
	return st.dir
}

// prepare readies the store for the next pass; the caller leaves it
// untimed. dse-incremental starts every pass from a fresh copy of its
// half-filled template, so each pass makes the same hits, misses and
// writes.
func (st *state) prepare() error {
	if st.def.cache != halfCache {
		return nil
	}
	if err := os.RemoveAll(st.storeDir()); err != nil {
		return err
	}
	return copyDir(st.dir, st.storeDir())
}

// parts splits a pass into the system lists of its RunSystems calls:
// one per system for a perSystem workload, else one for all.
func (st *state) parts() [][]systems.System {
	if !st.def.perSystem {
		return [][]systems.System{st.systems}
	}
	out := make([][]systems.System, len(st.systems))
	for i := range st.systems {
		out[i] = st.systems[i : i+1]
	}
	return out
}

// run is one RunSystems call of a pass through harness.Executor, the
// path a hetsweep user takes. A cached pass reopens the store, so its
// memory tier starts empty and every hit reads the disk.
func (st *state) run(sys []systems.System) ([]harness.Cell, rescache.Stats, error) {
	e := harness.Executor{Par: st.def.par}
	if st.def.cache != noCache {
		store, err := rescache.Open(st.storeDir())
		if err != nil {
			return nil, rescache.Stats{}, err
		}
		e.Cache = store
	}
	cells, err := e.RunSystems(sys, st.kernels)
	if err == nil {
		err = e.Cache.Err()
	}
	return cells, e.Cache.Stats(), err
}

// merge puts the cells of a pass's calls in the kernel-major,
// system-minor order one call over all systems returns.
func (st *state) merge(parts [][]harness.Cell) []harness.Cell {
	if len(parts) == 1 {
		return parts[0]
	}
	out := make([]harness.Cell, 0, st.cells())
	for ki := range st.kernels {
		for _, p := range parts {
			out = append(out, p[ki])
		}
	}
	return out
}

// wantHits is how many cells of a pass the cache should serve.
func (st *state) wantHits() int {
	switch st.def.cache {
	case fullCache:
		return st.cells()
	case halfCache:
		return len(st.systems) / 2 * len(st.kernels)
	}
	return 0
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
