package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/memsys"
	"heteromem/internal/memtech"
)

// TestL3ReachesTableIICapacity reads every line of 8 MB through the CPU
// and checks the four L3 tiles then hold all 131,072 of them: each tile
// indexes its sets above the line bits that interleave the tiles, so
// its quarter of the lines spreads over all its 1,024 sets.
func TestL3ReachesTableIICapacity(t *testing.T) {
	h := newH(t)
	var now clock.Time
	for a := uint64(0); a < 8<<20; a += 64 {
		now = h.Access(CPU, 0x10000000+a, false, now)
	}
	valid := 0
	for _, tile := range h.l3 {
		valid += tile.ValidBlocks()
	}
	if valid != 131072 {
		t.Fatalf("8 MB of distinct lines left %d valid L3 blocks, want 131072", valid)
	}
}

// level is one cache of a hierarchy, as the capacity-reach relation
// sees it: the caches of a level that share its lines between them (the
// L3 tiles) count as one.
type level struct {
	name   string
	caches []*cache.Cache
}

func (l level) capacity() int {
	n := 0
	for _, c := range l.caches {
		cfg := c.Config()
		n += cfg.SizeBytes / cfg.LineBytes
	}
	return n
}

func (l level) valid() int {
	n := 0
	for _, c := range l.caches {
		n += c.ValidBlocks()
	}
	return n
}

// TestCapacityReachHierarchy is the capacity-reach metamorphic relation
// on every cache level of a Table II hierarchy with a DRAM-cache
// backend: after N distinct lines have been read through a PU, each
// level it fills holds min(N, capacity) valid blocks. A level whose set
// index cannot reach all its sets stops short of its capacity. N steps
// through half, all and one and a quarter times each level's capacity.
func TestCapacityReachHierarchy(t *testing.T) {
	cfg := TableII()
	dc := memtech.DefaultDRAMCache()
	dc.SizeBytes = 16 << 20 // a quarter of the default keeps the walk short
	cfg.Tech = memtech.Spec{Kind: memtech.DRAMCache, DRAMCache: &dc}
	for _, pu := range []PU{CPU, GPU} {
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		levels := []level{{"gpu.l1d", []*cache.Cache{h.gpuL1d}}}
		if pu == CPU {
			levels = []level{{"cpu.l1d", []*cache.Cache{h.cpuL1d}}, {"cpu.l2", []*cache.Cache{h.cpuL2}}}
		}
		levels = append(levels,
			level{"l3", h.l3},
			level{"dram_cache", []*cache.Cache{h.Backend().(*memsys.DRAMCacheStage).Dir}})
		checks := map[int]bool{}
		last := 0
		for _, l := range levels {
			c := l.capacity()
			checks[c/2], checks[c], checks[c+c/4] = true, true, true
			last = max(last, c+c/4)
		}
		var now clock.Time
		for n := 1; n <= last; n++ {
			now = h.Access(pu, 0x10000000+uint64(n-1)*64, false, now)
			if !checks[n] {
				continue
			}
			for _, l := range levels {
				if got, want := l.valid(), min(n, l.capacity()); got != want {
					t.Errorf("%v: %s holds %d valid blocks after %d distinct lines, want %d", pu, l.name, got, n, want)
				}
			}
		}
	}
}

// randomGeometry draws a cache geometry: 1 to 4096 sets, 1 to 16 ways,
// 32- to 128-byte lines and up to two interleave bits. Sizes are powers
// of two, so set and way counts are too.
func randomGeometry(rng *rand.Rand, name string) cache.Config {
	sets, ways, line := 1<<rng.Intn(13), 1<<rng.Intn(5), 32<<rng.Intn(3)
	return cache.Config{
		Name: name, SizeBytes: sets * ways * line, LineBytes: line, Ways: ways,
		InterleaveBits: uint(rng.Intn(3)),
	}
}

// TestCapacityReachGeometries applies the capacity-reach relation to
// seeded geometries in isolation: a cache fed N distinct lines of one
// interleave class (the lines whose interleave bits all equal one
// value, as one L3 tile sees them) holds min(N, capacity) of them.
func TestCapacityReachGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 40; g++ {
		cfg := randomGeometry(rng, fmt.Sprintf("geom%d", g))
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		capacity := cfg.SizeBytes / cfg.LineBytes
		class, stride := uint64(rng.Intn(1<<cfg.InterleaveBits)), uint64(1)<<cfg.InterleaveBits
		for n := 1; n <= 2*capacity; n++ {
			addr := ((uint64(n-1)*stride + class) * uint64(cfg.LineBytes))
			if !c.Lookup(addr, false) {
				c.Fill(addr, false, false)
			}
			if n == capacity/2 || n == capacity || n == 2*capacity {
				if got, want := c.ValidBlocks(), min(n, capacity); got != want {
					t.Errorf("%+v: %d valid blocks after %d distinct lines, want %d", cfg, got, n, want)
				}
			}
		}
	}
}

// TestLRUStackProperty checks LRU's inclusion property on every Table II
// level and on seeded geometries: run in isolation on one access
// stream, a cache with two or four times the ways and the same set
// count hits wherever the smaller one does, so it never takes an extra
// miss.
func TestLRUStackProperty(t *testing.T) {
	cfg := TableII()
	tile := cfg.L3Tile
	tile.InterleaveBits = 2
	configs := []cache.Config{cfg.CPUL1D, cfg.CPUL2, cfg.GPUL1D, tile}
	rng := rand.New(rand.NewSource(2))
	for g := 0; g < 20; g++ {
		configs = append(configs, randomGeometry(rng, fmt.Sprintf("geom%d", g)))
	}
	for _, small := range configs {
		small.Policy, small.MaxExplicitWays = cache.LRU, 0
		large := small
		large.Ways = min(64, small.Ways<<(1+rng.Intn(2)))
		large.SizeBytes = small.SizeBytes / small.Ways * large.Ways
		cs, err := cache.New(small)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cache.New(large)
		if err != nil {
			t.Fatal(err)
		}
		// A stream over three times the smaller cache's lines, with
		// reuse at every distance up to the footprint.
		lines := 3 * small.SizeBytes / small.LineBytes
		for i := 0; i < 8*lines; i++ {
			addr := uint64(rng.Intn(lines)) * uint64(small.LineBytes)
			hs, hl := cs.Lookup(addr, false), cl.Lookup(addr, false)
			if hs && !hl {
				t.Fatalf("%s: %d ways missed at access %d where %d ways hit", small.Name, large.Ways, i, small.Ways)
			}
			if !hs {
				cs.Fill(addr, false, false)
			}
			if !hl {
				cl.Fill(addr, false, false)
			}
		}
		if ms, ml := cs.Stats().Misses, cl.Stats().Misses; ml > ms {
			t.Errorf("%s: %d ways took %d misses, %d ways %d", small.Name, large.Ways, ml, small.Ways, ms)
		}
	}
}
