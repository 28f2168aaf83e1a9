package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// aosCache is the pre-SoA array-of-structs implementation, kept as the
// behavioural oracle for the packed-bitmask layout and the tag columns:
// every operation below mirrors the original Cache method line for line,
// so a divergence in the randomized equivalence test pins the exact
// operation where the data layout changed semantics. A block keeps its
// whole line number as its tag, and the set index skips the interleave
// bits as Cache's does.
type aosBlock struct {
	tag      uint64
	valid    bool
	dirty    bool
	explicit bool
	lastUse  uint64
}

type aosCache struct {
	cfg       Config
	sets      [][]aosBlock
	setMask   uint64
	lineShift uint
	setShift  uint
	tick      uint64
	stats     Stats
	maxExpl   int
}

func newAOS(cfg Config) *aosCache {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &aosCache{
		cfg:       cfg,
		sets:      make([][]aosBlock, numSets),
		setMask:   uint64(numSets - 1),
		lineShift: lineShiftOf(cfg.LineBytes),
		setShift:  lineShiftOf(cfg.LineBytes) + cfg.InterleaveBits,
		maxExpl:   cfg.MaxExplicitWays,
	}
	if c.maxExpl == 0 {
		c.maxExpl = cfg.Ways - 1
	}
	if cfg.Policy == LRU {
		c.maxExpl = cfg.Ways
	}
	blocks := make([]aosBlock, numSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i], blocks = blocks[:cfg.Ways], blocks[cfg.Ways:]
	}
	return c
}

func lineShiftOf(lineBytes int) uint {
	s := uint(0)
	for 1<<s < lineBytes {
		s++
	}
	return s
}

func (c *aosCache) setIndex(addr uint64) uint64 { return (addr >> c.setShift) & c.setMask }
func (c *aosCache) tagOf(addr uint64) uint64    { return addr >> c.lineShift }

func (c *aosCache) Lookup(addr uint64, write bool) bool {
	c.tick++
	c.stats.Accesses++
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *aosCache) Probe(addr uint64) bool {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *aosCache) Fill(addr uint64, explicit, dirty bool) Eviction {
	c.tick++
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.tick
			set[i].explicit = set[i].explicit || explicit
			set[i].dirty = set[i].dirty || dirty
			return Eviction{}
		}
	}
	victim := c.chooseVictim(set, explicit)
	if victim < 0 {
		c.stats.Bypasses++
		return Eviction{Bypassed: true}
	}
	ev := Eviction{}
	if set[victim].valid {
		ev = Eviction{
			Valid:    true,
			Addr:     set[victim].tag << c.lineShift,
			Dirty:    set[victim].dirty,
			Explicit: set[victim].explicit,
		}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = aosBlock{tag: tag, valid: true, dirty: dirty, explicit: explicit, lastUse: c.tick}
	c.stats.Fills++
	return ev
}

func (c *aosCache) chooseVictim(set []aosBlock, explicitFill bool) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.cfg.Policy == LRU {
		return aosLRUAmong(set, func(aosBlock) bool { return true })
	}
	if !explicitFill {
		return aosLRUAmong(set, func(b aosBlock) bool { return !b.explicit })
	}
	if c.explicitCount(set) >= c.maxExpl {
		return aosLRUAmong(set, func(b aosBlock) bool { return b.explicit })
	}
	return aosLRUAmong(set, func(aosBlock) bool { return true })
}

func (c *aosCache) explicitCount(set []aosBlock) int {
	n := 0
	for i := range set {
		if set[i].valid && set[i].explicit {
			n++
		}
	}
	return n
}

func aosLRUAmong(set []aosBlock, eligible func(aosBlock) bool) int {
	best := -1
	for i := range set {
		if !eligible(set[i]) {
			continue
		}
		if best < 0 || set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

func (c *aosCache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = aosBlock{}
			return true, d
		}
	}
	return false, false
}

func (c *aosCache) FlushAll() (writebacks int) {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				writebacks++
			}
			c.sets[s][i] = aosBlock{}
		}
	}
	c.stats.Writebacks += uint64(writebacks)
	return writebacks
}

func (c *aosCache) ExplicitBlocks() int {
	n := 0
	for s := range c.sets {
		n += c.explicitCount(c.sets[s])
	}
	return n
}

func (c *aosCache) ValidBlocks() int {
	n := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid {
				n++
			}
		}
	}
	return n
}

// Operations the oracle comparisons drive.
const (
	opLookup = iota
	opFill
	opProbe
	opInvalidate
	opFlush
	numOps
)

// stepBoth applies one operation to the cache and to the oracle and
// compares every return value, every Eviction field (the evicted line's
// address included) and the Stats afterwards. For a lookup b1 is the
// write flag; for a fill b1 and b2 are the explicit and dirty flags.
func stepBoth(soa *Cache, aos *aosCache, op int, a uint64, b1, b2 bool) error {
	switch op {
	case opLookup:
		if g, o := soa.Lookup(a, b1), aos.Lookup(a, b1); g != o {
			return fmt.Errorf("Lookup(%#x,%v) = %v, oracle %v", a, b1, g, o)
		}
	case opFill:
		if g, o := soa.Fill(a, b1, b2), aos.Fill(a, b1, b2); g != o {
			return fmt.Errorf("Fill(%#x,%v,%v) = %+v, oracle %+v", a, b1, b2, g, o)
		}
	case opProbe:
		if g, o := soa.Probe(a), aos.Probe(a); g != o {
			return fmt.Errorf("Probe(%#x) = %v, oracle %v", a, g, o)
		}
	case opInvalidate:
		gp, gd := soa.Invalidate(a)
		wp, wd := aos.Invalidate(a)
		if gp != wp || gd != wd {
			return fmt.Errorf("Invalidate(%#x) = (%v,%v), oracle (%v,%v)", a, gp, gd, wp, wd)
		}
	case opFlush:
		if g, o := soa.FlushAll(), aos.FlushAll(); g != o {
			return fmt.Errorf("FlushAll = %d, oracle %d", g, o)
		}
	}
	if soa.Stats() != aos.stats {
		return fmt.Errorf("stats diverged: %+v vs oracle %+v", soa.Stats(), aos.stats)
	}
	return nil
}

// oracleConfigs are the geometries the randomized oracle tests cover.
var oracleConfigs = []Config{
	{Name: "lru", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Policy: LRU},
	{Name: "la", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Policy: LocalityAware},
	{Name: "la-cap1", SizeBytes: 2 << 10, LineBytes: 64, Ways: 8, Policy: LocalityAware, MaxExplicitWays: 1},
	{Name: "la-cap7", SizeBytes: 2 << 10, LineBytes: 64, Ways: 8, Policy: LocalityAware, MaxExplicitWays: 7},
	{Name: "one-way", SizeBytes: 1 << 10, LineBytes: 64, Ways: 1, Policy: LRU},
	{Name: "wide", SizeBytes: 64 << 10, LineBytes: 64, Ways: 32, Policy: LocalityAware},
	{Name: "widest", SizeBytes: 16 << 10, LineBytes: 64, Ways: 64, Policy: LocalityAware, MaxExplicitWays: 40},
	{Name: "multi-chunk", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, Policy: LocalityAware},
}

// TestSoAMatchesAoSOracle drives the SoA cache and the AoS oracle
// through long random operation sequences — lookups, fills
// (implicit/explicit, clean/dirty), probes, invalidates and flushes —
// over a small cache (so sets conflict constantly) and
// checks every return value, every Eviction field and the full Stats
// after each step, for both policies and several explicit-way caps. The
// multi-chunk geometry spans four metadata chunks and concentrates its
// traffic in two of them, so every operation, flushes
// included, also meets chunks that were never materialized.
func TestSoAMatchesAoSOracle(t *testing.T) {
	for _, cfg := range oracleConfigs {
		t.Run(cfg.Name, func(t *testing.T) { runOracle(t, cfg, nil) })
	}
}

// TestSoAMatchesAoSOracleAcrossClockWrap is the same comparison with
// the cache's 32-bit recency clock set at most 128 ticks below its
// limit, at the start and after every renumbering.
// Renumbering so fires over and over in every geometry, on sets in
// every state, while the oracle's 64-bit clock never wraps.
func TestSoAMatchesAoSOracleAcrossClockWrap(t *testing.T) {
	for _, cfg := range oracleConfigs {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)))
			renumbers := runOracle(t, cfg, func(c *Cache) { c.tick = maxStamp - uint32(rng.Intn(128)) })
			if renumbers < 100 {
				t.Errorf("clock renumbered %d times, want at least 100", renumbers)
			}
		})
	}
}

// runOracle runs the randomized comparison for one geometry. A non-nil
// arm sets the cache's clock at the start and after every renumbering; runOracle returns how many renumberings it saw.
func runOracle(t *testing.T, cfg Config, arm func(*Cache)) (renumbers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed + int64(cfg.Ways)))
	soa := MustNew(cfg)
	aos := newAOS(cfg)
	if arm != nil {
		arm(soa)
	}
	// Few distinct lines so sets overflow and every victim path runs.
	lines := 4 * cfg.SizeBytes / cfg.LineBytes / cfg.Ways * cfg.Ways
	addr := func() uint64 {
		return uint64(rng.Intn(lines))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
	}
	fillAddr := addr
	sparse := soa.Sets() > chunkSets
	if sparse {
		// Eight hot sets at the start of chunks 0 and 2, and an
		// occasional far set anywhere. Far fills are rarer still
		// and land only in chunk 1, which so materializes part
		// way through the run; chunk 3 is never filled.
		sets := uint64(soa.Sets())
		line := func(set uint64) uint64 {
			tag := uint64(rng.Intn(4 * cfg.Ways))
			return (tag*sets+set)*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
		}
		hot := func() uint64 {
			return uint64(rng.Intn(2)*2*chunkSets + rng.Intn(8))
		}
		addr = func() uint64 {
			if rng.Intn(64) == 0 {
				return line(uint64(rng.Int63n(int64(sets))))
			}
			return line(hot())
		}
		fillAddr = func() uint64 {
			if rng.Intn(1024) == 0 {
				return line(uint64(chunkSets + rng.Intn(chunkSets)))
			}
			return line(hot())
		}
	}
	steps := 200_000
	if sparse {
		steps = 50_000 // the oracle's flushes walk all 4096 sets
	}
	for step := 0; step < steps; step++ {
		var op int
		var a uint64
		var b1, b2 bool
		switch r := rng.Intn(100); {
		case r < 55:
			op, a, b1 = opLookup, addr(), rng.Intn(2) == 0
		case r < 85:
			op, a, b1, b2 = opFill, fillAddr(), rng.Intn(3) == 0, rng.Intn(3) == 0
		case r < 90:
			op, a = opProbe, addr()
		case r < 96:
			op, a = opInvalidate, addr()
		default:
			op = opFlush
		}
		before := soa.tick
		if err := stepBoth(soa, aos, op, a, b1, b2); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if soa.tick < before {
			renumbers++
			if arm != nil {
				arm(soa)
			}
		}
		if step%1024 == 0 {
			if g, o := soa.ValidBlocks(), aos.ValidBlocks(); g != o {
				t.Fatalf("step %d: ValidBlocks %d vs %d", step, g, o)
			}
			if g, o := soa.ExplicitBlocks(), aos.ExplicitBlocks(); g != o {
				t.Fatalf("step %d: ExplicitBlocks %d vs %d", step, g, o)
			}
		}
	}
	if m, n := soa.Chunks(); sparse && (m != 3 || n != 4) {
		t.Errorf("%d of %d chunks materialized, want 3 of 4 (chunk 3 is never filled)", m, n)
	}
	return renumbers
}

// FuzzCacheMatchesOracle lets the fuzzer pick the geometry (1 to 64
// ways, 1 to 1,024 sets, both policies, an explicit-way cap, up to two
// interleave bits), the starting clock (fresh or up to 255 ticks below the
// renumbering limit) and the operation sequence, and compares every
// return value, Eviction and the Stats with the AoS oracle (runOracleOps).
// The seeds cover, in order: a plain geometry, an interleaved one, lines
// of the three address-space regions that share their low tag bits, lines
// above 2^48 and near 2^64, and a geometry whose first chunk has no high
// tag column until a fill needs one.
func FuzzCacheMatchesOracle(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0xff, 0, 1, 0, 1, 2, 0, 0x21, 3, 0, 0x41, 4, 0, 1, 5, 0, 0, 6, 0})
	f.Add([]byte{6, 1, 0x6a, 0x10, 1, 1, 0, 1, 2, 0, 1, 3, 0, 0x09, 4, 0, 0x19, 5, 0, 0, 1, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x09, 7, 0, 0x09, 7, 1, 0x09, 7, 2, 0x21, 7, 1, 0x00, 7, 0, 0x00, 7, 2, 0x03, 7, 1})
	f.Add([]byte{0, 0, 0x71, 0xfe, 0x09, 3, 0x0f, 0x09, 3, 0xff, 0x01, 3, 0x0f, 0x09, 3, 0x03, 0x03, 3, 0xff, 0x01, 3, 0x03})
	f.Add([]byte{3, 1, 0x0f, 0, 0x01, 9, 0, 0x01, 9, 1, 0x09, 9, 3, 0x00, 9, 1, 0x00, 9, 0, 0x03, 9, 3, 0x04, 0, 0})
	f.Fuzz(runOracleOps)
}

// TestCacheMatchesOracleGenerated runs the fuzz target's comparison on
// seeded random inputs, so every geometry, region and clock case it can
// generate is covered without the fuzzing engine.
func TestCacheMatchesOracleGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7a9))
	data := make([]byte, 4+3*400)
	for range 300 {
		rng.Read(data)
		runOracleOps(t, data)
	}
}

// runOracleOps decodes data into a geometry, a starting clock and an
// operation sequence, and compares the cache with the AoS oracle after
// every operation. The clock is set back to its start after every
// renumbering.
//
// Header, four bytes: log2 ways; policy (low bit) and explicit-way cap;
// geometry (log2 sets in the low two bits, times 128 when bit 2 is set,
// interleave bits from bits 3 and 4, the cache's interleave value in the
// top three); clock offset. Every line the cache sees carries its
// interleave value, as Config.InterleaveBits requires.
//
// Each op is three bytes. The first holds the operation (low three bits),
// its flags (the next two) and the set (the top three). The second is the
// tag below the region, enough to overflow a 64-way set. The third picks
// the region: its low two bits select the CPU-private base 0, the
// GPU-private base 2^46, the shared base 2^47, or a base at 2^48 and up
// that reaches toward 2^64 with the byte's upper bits. Where the set-index
// and interleave fields take at most 8 bits together, lines of the first
// three regions share their low 32 tag bits, so a tag compare that
// ignored the high bits would confuse them; where they take 10 or more,
// the cache starts without a high tag column and the last region makes
// a fill carve one.
func runOracleOps(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	ways := 1 << (data[0] % 7)
	geo := data[2]
	sets := 1 << (geo & 3)
	if geo&4 != 0 {
		sets <<= 7
	}
	ilv := uint(geo>>3&3) % 3
	cfg := Config{Name: "fuzz", SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, InterleaveBits: ilv}
	if ways > 1 && data[1]&1 != 0 {
		cfg.Policy = LocalityAware
		cfg.MaxExplicitWays = int(data[1]>>1) % ways
	}
	soa, err := New(cfg)
	if err != nil {
		t.Fatalf("generated config %+v rejected: %v", cfg, err)
	}
	aos := newAOS(cfg)
	var start uint32
	if data[3] != 0 {
		start = maxStamp - uint32(data[3])
	}
	soa.tick = start
	ilvValue := uint64(geo>>5) & (1<<ilv - 1)
	for i := 4; i+2 < len(data); i += 3 {
		b, r := data[i], data[i+2]
		op := int(b&7) % numOps
		line := uint64(data[i+1])*uint64(sets) + uint64(b>>5)%uint64(sets)
		line = line<<ilv | ilvValue
		var base uint64
		switch r & 3 {
		case 1:
			base = 1 << 46
		case 2:
			base = 2 << 46
		case 3:
			base = uint64(r)<<56 | 1<<48
		}
		a := base + line*64 + uint64(i%64)
		before := soa.tick
		if err := stepBoth(soa, aos, op, a, b&8 != 0, b&16 != 0); err != nil {
			t.Fatalf("op at byte %d (%+v): %v", i, cfg, err)
		}
		if soa.tick < before {
			soa.tick = start
		}
		if g, o := soa.ValidBlocks(), aos.ValidBlocks(); g != o {
			t.Fatalf("op at byte %d: ValidBlocks %d vs oracle %d", i, g, o)
		}
		if g, o := soa.ExplicitBlocks(), aos.ExplicitBlocks(); g != o {
			t.Fatalf("op at byte %d: ExplicitBlocks %d vs oracle %d", i, g, o)
		}
	}
}

// TestWaysLimit pins the packed-state associativity bound: 64 ways is
// the densest legal geometry, 65 must be rejected at validation.
func TestWaysLimit(t *testing.T) {
	ok := Config{Name: "w64", SizeBytes: 64 * 64 * 64, LineBytes: 64, Ways: 64, Policy: LRU}
	c, err := New(ok)
	if err != nil {
		t.Fatalf("64 ways rejected: %v", err)
	}
	// All 64 ways of one set must be usable.
	for i := 0; i < 64; i++ {
		c.Fill(uint64(i)*64*64, false, false)
	}
	if got := c.ValidBlocks(); got != 64 {
		t.Fatalf("filled %d of 64 ways", got)
	}
	if ev := c.Fill(64*64*64, false, false); !ev.Valid {
		t.Fatal("65th fill into a full 64-way set did not evict")
	}
	bad := ok
	bad.Ways = 65
	bad.SizeBytes = 65 * 64 * 64
	if _, err := New(bad); err == nil {
		t.Fatal("65 ways accepted")
	}
}
