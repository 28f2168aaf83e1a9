package mem

import (
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/memtech"
	"heteromem/internal/xlat"
)

// warmH returns a baseline hierarchy whose CPU L1 holds addr's line,
// and the time the access that filled it completed.
func warmH(t *testing.T, addr uint64) (*Hierarchy, clock.Time) {
	t.Helper()
	h := MustNew(TableII())
	return h, h.Access(CPU, addr, false, 0)
}

// TestL1ConflictEvictionForcesMiss overruns the set of a resident line
// with conflicting lines; the next access to it must miss its L1.
func TestL1ConflictEvictionForcesMiss(t *testing.T) {
	const addr = 0x0
	h, now := warmH(t, addr)
	// Same set index every 4 KB in the 64-set, 8-way L1.
	cfg := h.Config().CPUL1D
	setStride := uint64(cfg.SizeBytes) / uint64(cfg.Ways)
	for k := 1; k <= cfg.Ways; k++ {
		now = h.Access(CPU, addr+uint64(k)*setStride, false, now)
	}
	d := h.Access(CPU, addr, false, now)
	if d.Sub(now) <= h.Config().CPUL1DLat {
		t.Fatal("access hit a line the conflicting fills should have evicted")
	}
}

// TestSharedPushKeepsL1Line: an explicit placement into the shared L3
// never touches a private L1, so a resident line still hits at exactly
// the L1 latency afterwards.
func TestSharedPushKeepsL1Line(t *testing.T) {
	const addr = 0x8000
	h, now := warmH(t, addr)
	now = h.Push(CPU, 0x100000, 4096, LevelShared, now)
	d := h.Access(CPU, addr, false, now)
	if got, want := d.Sub(now), h.Config().CPUL1DLat; got != want {
		t.Fatalf("access after a shared push took %v, want L1 latency %v", got, want)
	}
}

// TestOtherPUMissesKeepL1Line: one PU's misses mutate only its own
// private caches, never the other PU's L1.
func TestOtherPUMissesKeepL1Line(t *testing.T) {
	const addr = 0x8000
	h, now := warmH(t, addr)
	for k := 0; k < 64; k++ {
		now = h.Access(GPU, 0x400000+uint64(k)*4096, false, now)
	}
	d := h.Access(CPU, addr, false, now)
	if got, want := d.Sub(now), h.Config().CPUL1DLat; got != want {
		t.Fatalf("CPU access after GPU misses took %v, want L1 latency %v", got, want)
	}
}

func TestL1HitPathDoesNotAllocate(t *testing.T) {
	const addr = 0x4000
	h, now := warmH(t, addr)
	if n := testing.AllocsPerRun(100, func() {
		h.Access(CPU, addr, false, now)
	}); n != 0 {
		t.Fatalf("L1-hit access allocates %.1f objects", n)
	}
}

// BenchmarkHierarchyAccess exercises the three service tiers of a
// single access: an L1 hit, an L3 hit behind a working set
// too large for the private levels, and an ever-cold DRAM stream.
func BenchmarkHierarchyAccess(b *testing.B) {
	b.Run("l1-hit", func(b *testing.B) {
		h := MustNew(TableII())
		now := h.Access(CPU, 0, false, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = h.Access(CPU, 0, false, now)
		}
	})
	b.Run("l3-hit", func(b *testing.B) {
		h := MustNew(TableII())
		// 1 MB round-robin: overruns the 32 KB L1 and 256 KB L2 but sits
		// in the 8 MB L3, so steady-state accesses are L3 hits.
		const lines = (1 << 20) / 64
		now := clock.Time(0)
		for i := 0; i < lines; i++ {
			now = h.Access(CPU, uint64(i)*64, false, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = h.Access(CPU, uint64(i%lines)*64, false, now)
		}
	})
	b.Run("dram", func(b *testing.B) {
		h := MustNew(TableII())
		now := clock.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Ever-increasing line addresses: cold at every level.
			now = h.Access(CPU, uint64(i)*64, false, now)
		}
	})
	// The alternative terminal backends on the same ever-cold stream:
	// what a backend swap costs per simulated access.
	coldStream := func(k memtech.Kind) func(*testing.B) {
		return func(b *testing.B) {
			cfg := TableII()
			cfg.Tech = memtech.Spec{Kind: k}
			h := MustNew(cfg)
			now := clock.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = h.Access(CPU, uint64(i)*64, false, now)
			}
		}
	}
	b.Run("hbm", coldStream(memtech.HBM))
	b.Run("nvm", coldStream(memtech.NVM))
	b.Run("dram-cache-miss", coldStream(memtech.DRAMCache))
	b.Run("dram-cache-hit", func(b *testing.B) {
		cfg := TableII()
		cfg.Tech = memtech.Spec{Kind: memtech.DRAMCache}
		h := MustNew(cfg)
		// 16 MB round-robin: overruns the 8 MB L3 so every access reaches
		// the backend, but fits the 64 MB near cache, so after one warmup
		// pass the steady state is all near-memory hits.
		const lines = (16 << 20) / 64
		now := clock.Time(0)
		for i := 0; i < lines; i++ {
			now = h.Access(CPU, uint64(i)*64, false, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = h.Access(CPU, uint64(i%lines)*64, false, now)
		}
	})
	// The translation front-end on the L1-hit path: a warm TLB adds
	// only the probe, while an ever-cold stream of 4 KB pages walks the
	// page table on every new page.
	b.Run("tlb-hit", func(b *testing.B) {
		cfg := TableII()
		cfg.Xlat = xlat.MustParsePreset("4k")
		h := MustNew(cfg)
		now := h.Access(CPU, 0, false, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = h.Access(CPU, 0, false, now)
		}
	})
	b.Run("tlb-miss-walk", func(b *testing.B) {
		cfg := TableII()
		cfg.Xlat = xlat.MustParsePreset("4k")
		h := MustNew(cfg)
		now := clock.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A new 4 KB page every access: every lookup misses and walks.
			now = h.Access(CPU, uint64(i)*4096, false, now)
		}
	})
}
