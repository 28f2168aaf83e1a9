package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/memtech"
	"heteromem/internal/xlat"
)

// TestHierarchyInvariants drives a hierarchy under seeded random
// multi-PU traffic: reads and writes over a small pool of lines that
// conflict in every cache level, pushes at all three levels, and private
// flushes (with their TLB shootdowns). After every step it checks the
// accounting the statistics must satisfy whatever the traffic: see
// checkInvariants.
func TestHierarchyInvariants(t *testing.T) {
	full := TableII()
	full.Coherence = CoherenceDirectory
	full.Xlat = xlat.MustParsePreset("4k")
	full.Tech = memtech.Spec{Kind: memtech.DRAMCache, DRAMCache: &memtech.DRAMCacheParams{
		SizeBytes: 1 << 20, Ways: 4,
	}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", TableII()},
		{"directory+xlat-4k+dram-cache", full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				driveInvariants(t, tc.cfg, seed, 6000)
			}
		})
	}
}

// trafficPool returns the line addresses the random traffic draws from.
// Lines 1 MB apart share a set in every cache and DRAM-cache geometry
// above, so pool overruns each level's associativity, and four
// neighbours of each spread it over the L3 tiles. hot is drawn most
// often: nine lines 4 KB apart contend for one eight-way L1 set, so
// they hit often between misses, and which of them a miss evicts
// depends on the recency every hit records.
func trafficPool() (pool, hot []uint64) {
	for k := uint64(0); k < 40; k++ {
		for j := uint64(0); j < 4; j++ {
			pool = append(pool, k<<20+j*64)
		}
	}
	for k := uint64(1); k <= 9; k++ {
		hot = append(hot, k<<12)
	}
	return pool, hot
}

func driveInvariants(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	h := MustNew(cfg)
	pool, hot := trafficPool()
	rng := rand.New(rand.NewSource(seed))
	var now [NumPUs]clock.Time
	pu := CPU
	for step := 0; step < steps; step++ {
		// The PUs take turns in short runs, as the co-simulation
		// interleaves them.
		if rng.Intn(8) == 0 {
			pu = NumPUs - 1 - pu
		}
		end := now[pu]
		var op string
		switch r := rng.Intn(100); {
		case r < 3:
			op = "flush"
			h.FlushPrivate(pu)
		case r < 8:
			level := Level(rng.Intn(3))
			addr := pool[rng.Intn(len(pool))]
			size := uint32(64 * (1 + rng.Intn(4)))
			op = "push " + level.String()
			end = h.Push(pu, addr, size, level, now[pu])
		default:
			lines := hot
			if rng.Intn(8) == 0 {
				lines = pool
			}
			addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(8))*8
			op = "access"
			end = h.Access(pu, addr, rng.Intn(3) == 0, now[pu])
		}
		if err := checkInvariants(h, now[pu], end); err != nil {
			t.Fatalf("seed %d step %d (%s by %v): %s", seed, step, op, pu, err)
		}
		// Mostly overlap the next access with this one, so misses merge
		// in the MSHRs; sometimes wait for it.
		if rng.Intn(4) == 0 {
			now[pu] = end
		}
		now[pu] = now[pu].Add(clock.Duration(rng.Intn(2000)))
	}
	st := h.Stats()
	if st.L1Hits[CPU] == 0 || st.L1Hits[GPU] == 0 || st.L3Hits[CPU]+st.L3Hits[GPU] == 0 ||
		st.DRAMFills[CPU]+st.DRAMFills[GPU] == 0 || st.Writebacks == 0 || st.Pushes == 0 {
		t.Fatalf("seed %d: traffic missed a path: %+v", seed, st)
	}
	if cfg.Coherence == CoherenceDirectory && st.CoherenceOps == 0 {
		t.Fatalf("seed %d: no coherence operations", seed)
	}
	if !cfg.Xlat.IsZero() && (st.XlatMisses[CPU] == 0 || st.XlatShootdowns[GPU] == 0) {
		t.Fatalf("seed %d: translation never missed or shot down: %+v", seed, st)
	}
}

// checkInvariants returns the first broken invariant after an
// operation that started at start and completed at end, or nil when they
// all hold:
//   - an operation never completes before it started;
//   - every cache counts each access as exactly one hit or one miss;
//   - each PU's L1 sees exactly the hierarchy's accesses for that PU and
//     its hits are the hierarchy's L1 hits;
//   - the CPU's L2 is looked up exactly on the CPU's L1 misses.
func checkInvariants(h *Hierarchy, start, end clock.Time) error {
	if end < start {
		return fmt.Errorf("completed at %v, before its start %v", end, start)
	}
	cs := h.CacheStats()
	for name, s := range cs {
		if s.Hits+s.Misses != s.Accesses {
			return fmt.Errorf("%s: %d hits + %d misses != %d accesses", name, s.Hits, s.Misses, s.Accesses)
		}
	}
	st := h.Stats()
	cfg := h.Config()
	for pu, name := range [NumPUs]string{cfg.CPUL1D.Name, cfg.GPUL1D.Name} {
		if l1 := cs[name]; l1.Accesses != st.Accesses[pu] || l1.Hits != st.L1Hits[pu] {
			return fmt.Errorf("%s: %d accesses, %d hits; hierarchy counts %d accesses, %d L1 hits",
				name, l1.Accesses, l1.Hits, st.Accesses[pu], st.L1Hits[pu])
		}
	}
	if l1, l2 := cs[cfg.CPUL1D.Name], cs[cfg.CPUL2.Name]; l2.Accesses != l1.Misses {
		return fmt.Errorf("%s: %d accesses != %d %s misses", cfg.CPUL2.Name, l2.Accesses, l1.Misses, cfg.CPUL1D.Name)
	}
	return nil
}
