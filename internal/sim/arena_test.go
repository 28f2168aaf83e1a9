package sim

import (
	"runtime"
	"testing"

	"heteromem/internal/arena"
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
	const budget = 2 << 20
	if got := a.Bytes(); got > budget {
		t.Errorf("building CPU+GPU retained %d KiB of arena slabs, budget %d KiB", got>>10, budget>>10)
	}
	t.Logf("arena retains %d KiB", a.Bytes()>>10)
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
// design point it has visited before: rewinding the worker's arena,
// building a Fusion simulator with a DRAM-cache backend and running
// reduction must take its run-time growth (directory chunks, the
// predictor table) from the arena's retained slabs. A buffer that grows
// lazily on the heap instead shows up here.
func TestRecycledArenaHeapBudget(t *testing.T) {
	sys := systems.Fusion()
	sys.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	p, err := workload.Open("reduction")
	if err != nil {
		t.Fatal(err)
	}
	a := arena.New()
	point := func() {
		a.Reset()
		s, err := NewWithOptions(sys, Options{Arena: a})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	point() // warm-up: the arena grows its slabs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	point()
	runtime.ReadMemStats(&after)
	const budget = 20 << 10
	got := after.TotalAlloc - before.TotalAlloc
	if got > budget {
		t.Errorf("recycled DRAM-cache Fusion point allocated %d KiB of heap, budget %d KiB", got>>10, budget>>10)
	}
	t.Logf("recycled point allocates %d bytes of heap", got)
}
