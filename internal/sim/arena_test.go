package sim

import (
	"runtime"
	"testing"

	"heteromem/internal/arena"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// TestConstructionArenaBudget bounds what building one Table II
// simulator retains in a fresh arena: the model's metadata (cache tags,
// recency stamps and state masks, MSHR files, replay rings) and little
// else. A sweep rebuilds this for every system a worker visits.
func TestConstructionArenaBudget(t *testing.T) {
	a := arena.New()
	if _, err := NewWithOptions(systems.CPUGPU(), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	const budget = 1536 << 10
	if got := a.Bytes(); got > budget {
		t.Errorf("building CPU+GPU retained %d KiB of arena slabs, budget %d KiB", got>>10, budget>>10)
	}
	t.Logf("arena retains %d KiB", a.Bytes()>>10)
}

// TestDRAMCacheChunkArenaBudget bounds what one DRAM-cache directory
// chunk carves when a fill first reaches it: at the default 16 ways, two
// 32-bit columns of 16,384 ways (tags and recency stamps) and three state
// words for each of its 1,024 sets, 152 KiB, and no high tag column for a
// GPU-private line. Filling one line into every unbuilt chunk of a Table
// II Fusion simulator's directory spreads the batching slabs the state
// words come from over 63 chunks.
func TestDRAMCacheChunkArenaBudget(t *testing.T) {
	sys := systems.Fusion()
	sys.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	a := arena.New()
	s, err := NewWithOptions(sys, Options{Arena: a})
	if err != nil {
		t.Fatal(err)
	}
	dir := s.Hierarchy().Backend().(*memsys.DRAMCacheStage).Dir
	built := a.Bytes()
	m0, n := dir.Chunks()
	stride := uint64(dir.Sets()/n) * uint64(dir.Config().LineBytes) // one chunk's sets
	for k := m0; k < n; k++ {
		dir.Fill(1<<46+uint64(k)*stride, false, false)
	}
	if m, _ := dir.Chunks(); m != n {
		t.Fatalf("filling one line per chunk materialized %d of %d chunks", m, n)
	}
	const budget = 156 << 10
	perChunk := (a.Bytes() - built) / uintptr(n-m0)
	if perChunk > budget {
		t.Errorf("a DRAM-cache directory chunk carves %d KiB of arena slabs, budget %d KiB", perChunk>>10, budget>>10)
	}
	t.Logf("a directory chunk carves %d bytes (%d chunks)", perChunk, n-m0)
}

// TestMemControllerRunCarvesNothing pins that Fusion's block transfers
// through the memory controllers keep only per-bank state: running the
// quick kernels (harness.QuickKernels) leaves a Table II Fusion
// simulator's arena at its built size.
func TestMemControllerRunCarvesNothing(t *testing.T) {
	a := arena.New()
	s, err := NewWithOptions(systems.Fusion(), Options{Arena: a})
	if err != nil {
		t.Fatal(err)
	}
	built := a.Bytes()
	for _, k := range []string{"reduction", "convolution", "merge-sort"} {
		p, err := workload.Open(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
		if got := a.Bytes(); got != built {
			t.Fatalf("after %s the arena holds %d KiB, built %d KiB", k, got>>10, built>>10)
		}
	}
	t.Logf("arena holds %d KiB", built>>10)
}

// TestRecycledArenaHeapBudget bounds the heap a sweep worker spends on a
// cell: rewinding the worker's arena, building a Fusion simulator with a
// DRAM-cache backend and running reduction must carve the construction
// arrays (cache chunks, ring links and paths, DRAM banks, channel
// resources) and the run-time growth (directory chunks, the predictor
// table) from the arena's retained slabs. A buffer built or grown on the
// heap instead shows up here. Each figure is the least of several
// identical cells, so one stray runtime allocation in the window cannot
// fail the test.
func TestRecycledArenaHeapBudget(t *testing.T) {
	sys := systems.Fusion()
	sys.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	p, err := workload.Open("reduction")
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New()
	var s *Simulator
	build := func() {
		a.Reset()
		if s, err = NewWithOptions(sys, Options{Arena: a}); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	heap := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build() // warm-up: the arena grows its slabs
	run()
	minBuild, minCell := ^uint64(0), ^uint64(0)
	for range 5 {
		b := heap(build)
		minBuild, minCell = min(minBuild, b), min(minCell, b+heap(run))
	}
	// A build takes 9,160 bytes: the component structs themselves, which
	// the arena does not carve (its batching slabs would retain a
	// thousand of each per worker). A cell takes 13,944 bytes; its budget
	// leaves about 400 bytes for small changes to the run's own
	// allocations.
	const buildBudget, cellBudget = 9 << 10, 14 << 10
	if minBuild > buildBudget {
		t.Errorf("recycled DRAM-cache Fusion build allocated %d bytes of heap, budget %d", minBuild, buildBudget)
	}
	if minCell > cellBudget {
		t.Errorf("recycled DRAM-cache Fusion cell allocated %d bytes of heap, budget %d", minCell, cellBudget)
	}
	t.Logf("recycled build allocates %d bytes of heap, build and run %d", minBuild, minCell)
}
