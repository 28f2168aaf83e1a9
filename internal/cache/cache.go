// Package cache implements the hardware caches of the simulated memory
// hierarchy: set-associative caches with LRU or locality-aware
// replacement, the GPU's software-managed scratchpad, and miss-status
// holding registers (MSHRs).
//
// The locality-aware policy implements the paper's hybrid second-level
// locality management (Section II-B5): each tag carries one bit that
// records whether the block was placed explicitly (by a push instruction)
// or implicitly (by a hardware fill), and the replacement logic forbids
// an implicitly-managed fill from evicting an explicitly-managed block.
// To keep explicit data from monopolising the array, the explicitly
// managed footprint per set is capped below the full associativity
// (the paper's constraint that "the explicitly managed cache size must be
// smaller than the total size of the physically shared cache").
package cache

import (
	"fmt"
	"math/bits"

	"heteromem/internal/arena"
	"heteromem/internal/obs"
)

// Policy selects the replacement policy.
type Policy uint8

const (
	// LRU is plain least-recently-used replacement.
	LRU Policy = iota
	// LocalityAware is LRU augmented with the per-block locality bit of
	// Section II-B5: implicit fills may only replace invalid or implicit
	// blocks, and bypass the cache when a set is entirely explicit.
	LocalityAware
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LocalityAware:
		return "locality-aware"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config describes a cache's geometry and behaviour.
type Config struct {
	// Name identifies the cache in statistics (e.g. "cpu.l1d").
	Name string
	// SizeBytes is the total capacity. Must be a power of two.
	SizeBytes int
	// LineBytes is the block size. Must be a power of two.
	LineBytes int
	// Ways is the associativity. At most 64: per-set block state is kept
	// in packed 64-bit masks.
	Ways int
	// Policy selects the replacement policy.
	Policy Policy
	// MaxExplicitWays caps how many ways per set may hold explicit
	// blocks under LocalityAware. Zero means Ways-1, the minimum slack
	// that keeps at least one way available to implicit fills.
	MaxExplicitWays int
	// InterleaveBits is how many line-address bits directly above the
	// line offset choose this cache among caches that interleave lines,
	// as the L3 tiles do. Every line the cache sees has the same value
	// there, so the set index skips those bits; indexing with them would
	// leave all but one in 2^InterleaveBits sets unused.
	InterleaveBits uint
}

func (c Config) validate() error {
	switch {
	case c.SizeBytes <= 0 || bits.OnesCount(uint(c.SizeBytes)) != 1:
		return fmt.Errorf("cache %s: size %d is not a positive power of two", c.Name, c.SizeBytes)
	case c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache %s: line %d is not a positive power of two", c.Name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	case c.Ways > 64:
		return fmt.Errorf("cache %s: ways %d exceeds the packed-state limit of 64", c.Name, c.Ways)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line %d", c.Name, c.SizeBytes, c.LineBytes*c.Ways)
	case c.MaxExplicitWays < 0 || c.MaxExplicitWays > c.Ways:
		return fmt.Errorf("cache %s: max explicit ways %d out of range", c.Name, c.MaxExplicitWays)
	case c.InterleaveBits > 32:
		return fmt.Errorf("cache %s: interleave bits %d exceed 32", c.Name, c.InterleaveBits)
	case c.Policy == LocalityAware && c.MaxExplicitWays == c.Ways:
		return fmt.Errorf("cache %s: explicit ways must be smaller than associativity (paper constraint II-B5)", c.Name)
	}
	return nil
}

// Eviction describes the result of a Fill: which block, if any, was
// displaced, and whether the fill was bypassed entirely.
type Eviction struct {
	// Valid reports that a valid block was evicted.
	Valid bool
	// Addr is the base address of the evicted line.
	Addr uint64
	// Dirty reports the evicted line had been written (needs write-back).
	Dirty bool
	// Explicit reports the evicted line was explicitly managed.
	Explicit bool
	// Bypassed reports the fill was dropped because the locality-aware
	// policy found no replaceable way (the whole set is explicit).
	Bypassed bool
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64
	Bypasses   uint64
}

// HitRate returns hits/accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// chunkSets is the number of sets per metadata chunk: the largest
// Table II geometry (one L3 tile), so every baseline cache is exactly
// one chunk and only larger directories (the DRAM cache's) span more.
const (
	chunkShift = 10
	chunkSets  = 1 << chunkShift
)

// Cache is a set-associative cache. It models tags and replacement state
// only — the simulator never stores data, it only times accesses.
//
// Block metadata is stored structure-of-arrays: the tag and LRU arrays
// are indexed [set*ways+way] and the single-bit states (valid, dirty,
// explicit) are packed into one 64-bit mask per set. The set probe in
// Lookup walks only the tag array, way selection over the masks is
// branch-free via bits.TrailingZeros64, and the recency array is touched
// only on the hit it refreshes — a lookup no longer drags every block's
// cold metadata through the host cache.
//
// The arrays are split into chunks of chunkSets sets. The first chunk is
// built with the cache, its header inside the Cache; every later one is
// materialized on the first fill into it. A set in an unmaterialized
// chunk holds no valid block, so lookups, probes and invalidations there
// answer without allocating, and the host memory of a large directory
// follows the lines a workload touches rather than the capacity it
// models.
type Cache struct {
	cfg  Config
	ways int
	// arena backs every chunk, the first and the materialized ones.
	arena *arena.Arena
	// chunks[s>>chunkShift] holds set s; nil until its first fill.
	chunks []*chunk
	// live lists the materialized chunks, so whole-cache walks (FlushAll,
	// the block counts) cost what was touched.
	live []*chunk
	// waysMask has the low `ways` bits set.
	waysMask  uint64
	setMask   uint64
	lineShift uint
	// setShift is lineShift plus the interleave bits the set index skips.
	setShift uint
	// tick is the recency clock; it stays at most maxStamp (see advance).
	tick    uint32
	stats   Stats
	maxExpl int
	// first is the chunk built with the cache, chunks[0]. It comes last
	// so the fields Lookup reads stay together at the front.
	first chunk
}

// chunk holds the metadata of up to chunkSets consecutive sets.
type chunk struct {
	// tags and lastUse are indexed [set*ways+way], set local to the chunk.
	// A lastUse stamp only orders the ways of its set (see advance).
	tags    []uint64
	lastUse []uint32
	// valid, dirty and explicit hold one bit per way, one word per set.
	valid    []uint64
	dirty    []uint64
	explicit []uint64
}

func newChunk(a *arena.Arena, sets, ways int) chunk {
	return chunk{
		tags:     arena.Make[uint64](a, sets*ways),
		lastUse:  arena.Make[uint32](a, sets*ways),
		valid:    arena.Make[uint64](a, sets),
		dirty:    arena.Make[uint64](a, sets),
		explicit: arena.Make[uint64](a, sets),
	}
}

// clear invalidates every block of the chunk.
func (ch *chunk) clear() {
	clear(ch.tags)
	clear(ch.lastUse)
	clear(ch.valid)
	clear(ch.dirty)
	clear(ch.explicit)
}

// Instrument binds the cache's hit/miss/eviction counts into b as
// registry counters under the given prefix (e.g. "mem.cpu.l1d" yields
// "mem.cpu.l1d.hits"). The owner of b flushes it.
func (c *Cache) Instrument(b *obs.Batch, reg *obs.Registry, prefix string) {
	b.Bind(reg, prefix+".hits", &c.stats.Hits)
	b.Bind(reg, prefix+".misses", &c.stats.Misses)
	b.Bind(reg, prefix+".evictions", &c.stats.Evictions)
}

// New returns a cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	return NewIn(nil, cfg)
}

// NewIn is New with the metadata chunks carved from the arena (nil
// falls back to the ordinary heap): the first at construction, later
// ones when first filled. The cache carves from the arena for its whole
// life, so it must run on the goroutine that owns the arena, and the
// arena may be Reset only once the cache is dropped. Sweep workers build
// each simulator out of one arena and rewind it between cells, so a
// cell's directory chunks reuse the previous cell's slabs.
func NewIn(a *arena.Arena, cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	// Sizes and ways are powers of two, so a cache larger than one chunk
	// is a whole number of chunks.
	lineShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c := &Cache{
		cfg:       cfg,
		ways:      cfg.Ways,
		arena:     a,
		first:     newChunk(a, min(numSets, chunkSets), cfg.Ways),
		chunks:    arena.Make[*chunk](a, max(1, numSets/chunkSets)),
		live:      arena.Grow[*chunk](a, nil, 1),
		waysMask:  uint64(1)<<uint(cfg.Ways) - 1, // Ways == 64 wraps the shift to 0, so this is all-ones there too
		setMask:   uint64(numSets - 1),
		lineShift: lineShift,
		setShift:  lineShift + cfg.InterleaveBits,
		maxExpl:   cfg.MaxExplicitWays,
	}
	c.chunks[0], c.live[0] = &c.first, &c.first
	if c.maxExpl == 0 {
		c.maxExpl = cfg.Ways - 1
	}
	if cfg.Policy == LRU {
		c.maxExpl = cfg.Ways
	}
	return c, nil
}

// MustNew is New but panics on configuration error, for static configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Chunks reports how many of the cache's metadata chunks are
// materialized, out of how many in all.
func (c *Cache) Chunks() (materialized, total int) { return len(c.live), len(c.chunks) }

// LineFor returns the base address of the line containing addr.
func (c *Cache) LineFor(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> c.setShift) & c.setMask }
func (c *Cache) tagOf(addr uint64) uint64    { return addr >> c.lineShift }

// locate returns the chunk holding addr's set, nil if it was never
// filled, and the set's index within that chunk.
func (c *Cache) locate(addr uint64) (*chunk, uint64) {
	s := c.setIndex(addr)
	return c.chunks[s>>chunkShift], s & (chunkSets - 1)
}

// Lookup accesses the line containing addr, reporting a hit. On a hit the
// block's recency is refreshed and, for writes, the dirty bit set. On a
// miss the caller is expected to fetch the line from the next level and
// call Fill.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.advance()
	c.stats.Accesses++
	if ch, s := c.locate(addr); ch != nil {
		tag := c.tagOf(addr)
		base := int(s) * c.ways
		// Linear tag scan: invalid ways hold tag 0 (zeroed at carving, fill
		// overwrite and invalidation), so a tag match is almost always a
		// hit and the valid bit only breaks the tag-0 tie. The straight
		// walk beats iterating the valid mask bit by bit on warm sets.
		for w, t := range ch.tags[base : base+c.ways] {
			if t == tag && ch.valid[s]&(1<<uint(w)) != 0 {
				ch.lastUse[base+w] = c.tick
				if write {
					ch.dirty[s] |= 1 << uint(w)
				}
				c.stats.Hits++
				return true
			}
		}
	}
	c.stats.Misses++
	return false
}

// Probe reports whether the line containing addr is present without
// disturbing replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	ch, s := c.locate(addr)
	if ch == nil {
		return false
	}
	tag := c.tagOf(addr)
	base := int(s) * c.ways
	for w, t := range ch.tags[base : base+c.ways] {
		if t == tag && ch.valid[s]&(1<<uint(w)) != 0 {
			return true
		}
	}
	return false
}

// Fill inserts the line containing addr. explicit marks the block as
// explicitly managed (placed by push); dirty installs it already modified
// (e.g. a store miss under write-allocate). The returned Eviction
// describes any displaced block or a bypass.
func (c *Cache) Fill(addr uint64, explicit, dirty bool) Eviction {
	c.advance()
	ch, s := c.locate(addr)
	if ch == nil {
		ch = c.materialize(addr)
	}
	tag := c.tagOf(addr)
	base := int(s) * c.ways

	// Upgrade in place if already present (fill after racing lookups,
	// or a push of resident data).
	for w, t := range ch.tags[base : base+c.ways] {
		if t == tag && ch.valid[s]&(1<<uint(w)) != 0 {
			ch.lastUse[base+w] = c.tick
			bit := uint64(1) << uint(w)
			if explicit {
				ch.explicit[s] |= bit
			}
			if dirty {
				ch.dirty[s] |= bit
			}
			return Eviction{}
		}
	}

	victim := c.chooseVictim(ch, s, explicit)
	if victim < 0 {
		c.stats.Bypasses++
		return Eviction{Bypassed: true}
	}
	bit := uint64(1) << uint(victim)
	idx := base + victim
	ev := Eviction{}
	if ch.valid[s]&bit != 0 {
		ev = Eviction{
			Valid:    true,
			Addr:     ch.tags[idx] << c.lineShift,
			Dirty:    ch.dirty[s]&bit != 0,
			Explicit: ch.explicit[s]&bit != 0,
		}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	ch.tags[idx] = tag
	ch.lastUse[idx] = c.tick
	ch.valid[s] |= bit
	if dirty {
		ch.dirty[s] |= bit
	} else {
		ch.dirty[s] &^= bit
	}
	if explicit {
		ch.explicit[s] |= bit
	} else {
		ch.explicit[s] &^= bit
	}
	c.stats.Fills++
	return ev
}

// maxStamp is the largest recency stamp. lruAmong reads an ineligible
// way as ^uint32(0), so no stamp may reach it.
const maxStamp = ^uint32(0) - 1

// advance moves the recency clock one tick for a Lookup or Fill.
//
// Stamps are 32 bits, so the clock renumbers before it would pass
// maxStamp. That is exact: a stamp is read only by lruAmong, which runs
// only on a full set (chooseVictim takes an invalid way first) and
// compares only the ways of that one set. Replacement therefore depends
// on nothing but the order of each set's valid stamps, and renumber
// keeps that order. Stamps of invalid ways are never read.
func (c *Cache) advance() {
	if c.tick == maxStamp {
		c.renumber()
	}
	c.tick++
}

// renumber restamps every materialized set's valid ways 1..n in their
// current stamp order and restarts the clock at Ways, above every n.
// Valid stamps within a set are distinct (each tick stamps one way), so
// the order is total.
func (c *Cache) renumber() {
	for _, ch := range c.live {
		for s, v := range ch.valid {
			set := ch.lastUse[s*c.ways : (s+1)*c.ways]
			var old [64]uint32
			copy(old[:], set)
			for m := v; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				rank := uint32(1)
				for o := v; o != 0; o &= o - 1 {
					if old[bits.TrailingZeros64(o)] < old[w] {
						rank++
					}
				}
				set[w] = rank
			}
		}
	}
	c.tick = uint32(c.ways)
}

// materialize builds the chunk holding addr's set on its first fill.
func (c *Cache) materialize(addr uint64) *chunk {
	ch := new(chunk)
	*ch = newChunk(c.arena, chunkSets, c.ways)
	c.chunks[c.setIndex(addr)>>chunkShift] = ch
	c.live = arena.Grow(c.arena, c.live, len(c.live)+1)
	c.live[len(c.live)-1] = ch
	return ch
}

// chooseVictim returns the way to replace in set s of ch, or -1 to
// bypass. Preference order: the lowest invalid way, then LRU among the
// ways this fill is allowed to replace under the policy. Eligibility is
// a bitmask, so the policy cases reduce to mask algebra over the packed
// state.
func (c *Cache) chooseVictim(ch *chunk, s uint64, explicitFill bool) int {
	if free := ^ch.valid[s] & c.waysMask; free != 0 {
		return bits.TrailingZeros64(free)
	}
	if c.cfg.Policy == LRU {
		return c.lruAmong(ch, s, c.waysMask)
	}
	if !explicitFill {
		// Implicit fills may not displace explicit blocks (II-B5).
		return c.lruAmong(ch, s, ^ch.explicit[s]&c.waysMask)
	}
	// Explicit fill: if the set already holds the maximum explicit
	// footprint, replace the LRU explicit block so the cap is preserved;
	// otherwise replace the global LRU.
	if bits.OnesCount64(ch.valid[s]&ch.explicit[s]) >= c.maxExpl {
		return c.lruAmong(ch, s, ch.explicit[s]&c.waysMask)
	}
	return c.lruAmong(ch, s, c.waysMask)
}

// lruAmong returns the eligible way with the smallest lastUse (earliest
// eligible way wins ties), or -1 when the mask is empty. The scan has a
// fixed trip count and no data-dependent branch: an ineligible way reads
// as the largest stamp, and the running minimum and its way update by
// conditional moves. A valid block's stamp is at most maxStamp, so an
// eligible way always beats the ineligible ^uint32(0).
func (c *Cache) lruAmong(ch *chunk, s uint64, eligible uint64) int {
	base := int(s) * c.ways
	best, bestUse := -1, ^uint32(0)
	for w, u := range ch.lastUse[base : base+c.ways] {
		if eligible>>(uint(w)&63)&1 == 0 {
			u = ^uint32(0)
		}
		if u < bestUse {
			best = w
		}
		bestUse = min(bestUse, u)
	}
	return best
}

// Invalidate removes the line containing addr if present, reporting
// whether it was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	ch, s := c.locate(addr)
	if ch == nil {
		return false, false
	}
	tag := c.tagOf(addr)
	base := int(s) * c.ways
	for m := ch.valid[s]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if ch.tags[base+w] == tag {
			bit := uint64(1) << uint(w)
			d := ch.dirty[s]&bit != 0
			ch.valid[s] &^= bit
			ch.dirty[s] &^= bit
			ch.explicit[s] &^= bit
			ch.tags[base+w] = 0
			ch.lastUse[base+w] = 0
			return true, d
		}
	}
	return false, false
}

// FlushAll invalidates every block and returns the number of dirty lines
// that would be written back.
func (c *Cache) FlushAll() (writebacks int) {
	for _, ch := range c.live {
		for s, v := range ch.valid {
			writebacks += bits.OnesCount64(v & ch.dirty[s])
		}
		ch.clear()
	}
	c.stats.Writebacks += uint64(writebacks)
	return writebacks
}

// ExplicitBlocks returns how many valid blocks are explicitly managed.
func (c *Cache) ExplicitBlocks() int {
	n := 0
	for _, ch := range c.live {
		for s, v := range ch.valid {
			n += bits.OnesCount64(v & ch.explicit[s])
		}
	}
	return n
}

// ValidBlocks returns how many blocks are valid.
func (c *Cache) ValidBlocks() int {
	n := 0
	for _, ch := range c.live {
		for _, v := range ch.valid {
			n += bits.OnesCount64(v)
		}
	}
	return n
}
