package mem_test

import (
	"testing"

	"heteromem/internal/mem"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// Every Table II cache is one metadata chunk, built with the hierarchy,
// so no baseline access pays for a lazy materialization.
func TestTableIICachesAreOneChunk(t *testing.T) {
	h := mem.MustNew(mem.TableII())
	for _, c := range h.PrivateAndL3Caches() {
		if m, n := c.Chunks(); m != 1 || n != 1 {
			t.Errorf("%s: %d of %d chunks materialized, want 1 of 1", c.Config().Name, m, n)
		}
	}
}

// A 64 MB DRAM-cache directory (64 chunks of 1024 sets) running
// reduction materializes only the few chunks the kernel's lines map to.
func TestDRAMCacheDirectoryFollowsFootprint(t *testing.T) {
	sys := systems.CPUGPU()
	sys.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	s, err := sim.New(sys)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Open("reduction")
	if err != nil {
		t.Fatal(err)
	}
	dir := s.Hierarchy().Backend().(*memsys.DRAMCacheStage).Dir
	if m, n := dir.Chunks(); m != 1 || n != 64 {
		t.Fatalf("new directory: %d of %d chunks materialized, want 1 of 64", m, n)
	}
	if _, err := s.Run(p); err != nil {
		t.Fatal(err)
	}
	m, _ := dir.Chunks()
	if m > 8 {
		t.Errorf("reduction materialized %d of 64 directory chunks, want at most 8", m)
	}
	if dir.ValidBlocks() == 0 {
		t.Fatal("reduction left no line in the DRAM cache")
	}
	t.Logf("reduction: %d of 64 chunks, %d lines", m, dir.ValidBlocks())
}
