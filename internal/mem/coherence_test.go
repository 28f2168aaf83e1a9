package mem

import (
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/coherence"
)

func coherentH(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := TableII()
	cfg.Coherence = CoherenceDirectory
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCoherenceModeString(t *testing.T) {
	if CoherenceNone.String() != "none" || CoherenceDirectory.String() != "directory" {
		t.Error("mode names wrong")
	}
}

func TestDirectoryNilWhenOff(t *testing.T) {
	h := MustNew(TableII())
	if h.Directory() != nil {
		t.Fatal("directory present with coherence off")
	}
}

func TestCrossPUWriteInvalidatesRemoteCopy(t *testing.T) {
	h := coherentH(t)
	// CPU reads a line; GPU writes it; the CPU's next read must miss its
	// (invalidated) private copy.
	h.Access(CPU, 0x1000, false, 0)
	s := clock.Time(clock.Microsecond)
	h.Access(GPU, 0x1000, true, s)
	if h.Directory().SharedBy(int(CPU), 0x1000) {
		t.Fatal("directory still lists the CPU's copy after the GPU's write")
	}
	s2 := clock.Time(2 * clock.Microsecond)
	d := h.Access(CPU, 0x1000, false, s2)
	if d.Sub(s2) <= h.Config().CPUL1DLat {
		t.Fatal("CPU read hit a copy the GPU's write should have invalidated")
	}
	if h.Stats().CoherenceOps == 0 {
		t.Fatal("no coherence operations recorded")
	}
}

func TestCrossPUReadOfDirtyDataPaysWriteback(t *testing.T) {
	h := coherentH(t)
	// Both reads hit the shared L3; the one whose line the GPU holds
	// Modified must additionally pay the forced-writeback round trip.
	h.Access(GPU, 0x2000, true, 0) // GPU: Modified
	s := clock.Time(clock.Microsecond)
	dirty := h.Access(CPU, 0x2000, false, s).Sub(s)

	h2 := coherentH(t)
	h2.Access(GPU, 0x3000, false, 0) // GPU: Shared (clean)
	s2 := clock.Time(clock.Microsecond)
	clean := h2.Access(CPU, 0x3000, false, s2).Sub(s2)
	if dirty <= clean {
		t.Fatalf("dirty-remote L3 read (%v) not slower than clean-remote L3 read (%v)", dirty, clean)
	}
	if st := h.Directory().StateOf(0x2000); st != coherence.Shared {
		t.Fatalf("line state after the forced writeback = %v, want S", st)
	}
}

func TestLocalTrafficFreeUnderDirectory(t *testing.T) {
	// A single PU hammering its own data pays no coherence fees.
	h := coherentH(t)
	for i := 0; i < 100; i++ {
		h.Access(CPU, uint64(i%8)*64, i%2 == 0, clock.Time(i)*clock.Time(clock.Microsecond))
	}
	if h.Stats().CoherenceOps != 0 {
		t.Fatalf("local traffic triggered %d coherence ops", h.Stats().CoherenceOps)
	}
}

func TestPingPongSharingCostly(t *testing.T) {
	// The paper's scalability concern: CPU and GPU alternately writing
	// the same lines is far slower with hardware coherence than the same
	// pattern on disjoint lines.
	h := coherentH(t)
	var now clock.Time
	for i := 0; i < 200; i++ {
		pu := PU(i % 2)
		now = h.Access(pu, 0x8000, true, now)
	}
	sharedTime := now

	h2 := coherentH(t)
	now = 0
	for i := 0; i < 200; i++ {
		pu := PU(i % 2)
		addr := uint64(0x8000 + int(pu)*0x100000)
		now = h2.Access(pu, addr, true, now)
	}
	disjointTime := now
	if sharedTime < disjointTime*2 {
		t.Fatalf("write ping-pong (%v) not clearly costlier than disjoint writes (%v)", sharedTime, disjointTime)
	}
}

func TestEvictionReleasesDirectoryEntry(t *testing.T) {
	cfg := TableII()
	cfg.Coherence = CoherenceDirectory
	// Tiny GPU L1 forces evictions quickly.
	cfg.GPUL1D.SizeBytes = 1024
	cfg.GPUL1D.Ways = 2
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now clock.Time
	for i := 0; i < 256; i++ {
		now = h.Access(GPU, uint64(i)*64, false, now)
	}
	// The directory must not track more lines than the GPU could hold
	// plus what the CPU side holds (nothing).
	if got := h.Directory().TrackedLines(); got > 64 {
		t.Fatalf("directory tracks %d lines; evictions not propagated", got)
	}
}
