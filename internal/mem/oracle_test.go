package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/memtech"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// TestMemoMatchesReference drives two identical hierarchies side by side
// under seeded random multi-PU traffic: reads and writes over a small
// pool of lines that conflict in every cache level, pushes at all three
// levels, and private flushes (with their TLB shootdowns). The reference
// has its memo cleared before every operation, so each of its L1 hits
// takes the plain probe; the other keeps the memo. Every returned time
// and every statistic must agree at every step.
func TestMemoMatchesReference(t *testing.T) {
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
				diffMemo(t, tc.cfg, seed, 6000)
			}
		})
	}
}

// oraclePool returns the line addresses the differential test draws
// from. Lines 1 MB apart share a set in every cache and DRAM-cache
// geometry above, so pool overruns each level's associativity, and
// four neighbours of each spread it over the L3 tiles. hot is drawn
// most often: nine lines 4 KB apart contend for one eight-way L1 set, so
// they hit often enough to ride the memo between misses, and which of
// them a miss evicts depends on the recency every hit records.
func oraclePool() (pool, hot []uint64) {
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

func diffMemo(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	fast, ref := MustNew(cfg), MustNew(cfg)
	fastReg, refReg := obs.NewRegistry(), obs.NewRegistry()
	fast.Instrument(fastReg)
	ref.Instrument(refReg)
	pool, hot := oraclePool()
	rng := rand.New(rand.NewSource(seed))
	var now [NumPUs]clock.Time
	memoLive := 0
	pu := CPU
	for step := 0; step < steps; step++ {
		// The PUs take turns in short runs, as the co-simulation
		// interleaves them.
		if rng.Intn(8) == 0 {
			pu = NumPUs - 1 - pu
		}
		ref.ClearMemo()
		var got, want clock.Time
		var op string
		switch r := rng.Intn(100); {
		case r < 3:
			op = "flush"
			got, want = clock.Time(fast.FlushPrivate(pu)), clock.Time(ref.FlushPrivate(pu))
		case r < 8:
			level := Level(rng.Intn(3))
			addr := pool[rng.Intn(len(pool))]
			size := uint32(64 * (1 + rng.Intn(4)))
			op = "push " + level.String()
			got = fast.Push(pu, addr, size, level, now[pu])
			want = ref.Push(pu, addr, size, level, now[pu])
		default:
			lines := hot
			if rng.Intn(8) == 0 {
				lines = pool
			}
			addr := lines[rng.Intn(len(lines))] + uint64(rng.Intn(8))*8
			write := rng.Intn(3) == 0
			if slot := fast.memoSlotFor(pu, addr); slot.gen == fast.gen[pu] && slot.line == fast.topo.Line(addr) {
				memoLive++
			}
			op = "access"
			got = fast.Access(pu, addr, write, now[pu])
			want = ref.Access(pu, addr, write, now[pu])
		}
		if got != want {
			t.Fatalf("seed %d step %d (%s by %v): memo %d, reference %d", seed, step, op, pu, got, want)
		}
		if fs, rs := fast.Stats(), ref.Stats(); fs != rs {
			t.Fatalf("seed %d step %d (%s by %v): stats diverged:\nmemo      %+v\nreference %+v", seed, step, op, pu, fs, rs)
		}
		if fc, rc := fast.CacheStats(), ref.CacheStats(); !reflect.DeepEqual(fc, rc) {
			t.Fatalf("seed %d step %d (%s by %v): cache stats diverged:\nmemo      %+v\nreference %+v", seed, step, op, pu, fc, rc)
		}
		if step%64 == 63 || step == steps-1 {
			fast.FlushObs()
			ref.FlushObs()
			if fc, rc := fastReg.Snapshot().Counters, refReg.Snapshot().Counters; !reflect.DeepEqual(fc, rc) {
				t.Fatalf("seed %d step %d: registry counters diverged:\nmemo      %v\nreference %v", seed, step, fc, rc)
			}
		}
		// Mostly overlap the next access with this one, so misses merge
		// in the MSHRs; sometimes wait for it.
		if op != "flush" && rng.Intn(4) == 0 {
			now[pu] = clock.Max(now[pu], got)
		}
		now[pu] = now[pu].Add(clock.Duration(rng.Intn(2000)))
	}
	if memoLive < steps/20 {
		t.Fatalf("seed %d: only %d of %d steps found a live memo slot", seed, memoLive, steps)
	}
	st := fast.Stats()
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
