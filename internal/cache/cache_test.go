package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T, policy Policy) *Cache {
	t.Helper()
	c, err := New(Config{
		Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 4, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "sz", SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{Name: "ln", SizeBytes: 1024, LineBytes: 48, Ways: 4},
		{Name: "ways", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "div", SizeBytes: 1024, LineBytes: 64, Ways: 5},
		{Name: "expl-range", SizeBytes: 1024, LineBytes: 64, Ways: 4, MaxExplicitWays: 5},
		{Name: "expl-full", SizeBytes: 1024, LineBytes: 64, Ways: 4, Policy: LocalityAware, MaxExplicitWays: 4},
		// 2^62 bytes per way and two interleave bits: the tag would start
		// at address bit 64.
		{Name: "no-tag", SizeBytes: 1 << 62, LineBytes: 1 << 62, Ways: 1, InterleaveBits: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %s accepted, want error", cfg.Name)
		}
	}
	for _, cfg := range []Config{
		{Name: "ok", SizeBytes: 1024, LineBytes: 64, Ways: 4},
		{Name: "tag-at-63", SizeBytes: 1 << 62, LineBytes: 1 << 62, Ways: 1, InterleaveBits: 1},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{SizeBytes: 3})
}

func TestGeometry(t *testing.T) {
	c := smallCache(t, LRU)
	if c.Sets() != 4 {
		t.Fatalf("sets = %d, want 4", c.Sets())
	}
	if c.LineFor(0x12345) != 0x12340 {
		t.Fatalf("LineFor(0x12345) = %#x", c.LineFor(0x12345))
	}
}

func TestHitAfterFill(t *testing.T) {
	c := smallCache(t, LRU)
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, false, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x1008, false) {
		t.Fatal("same-line access missed")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("next-line access hit without fill")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t, LRU) // 4 sets, 4 ways, 64B lines; set stride = 256B
	// Fill one set (set 0) with 4 distinct lines.
	addrs := []uint64{0x0000, 0x0400, 0x0800, 0x0c00}
	for _, a := range addrs {
		c.Fill(a, false, false)
	}
	// Touch the first three so 0x0c00 is LRU.
	for _, a := range addrs[:3] {
		c.Lookup(a, false)
	}
	ev := c.Fill(0x1000, false, false)
	if !ev.Valid || ev.Addr != 0x0c00 {
		t.Fatalf("evicted %+v, want LRU line 0xc00", ev)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := smallCache(t, LRU)
	c.Fill(0x0000, false, false)
	c.Lookup(0x0000, true) // dirty it
	for _, a := range []uint64{0x0400, 0x0800, 0x0c00, 0x1000} {
		c.Fill(a, false, false)
	}
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestFillDirtyInstall(t *testing.T) {
	c := smallCache(t, LRU)
	c.Fill(0x0000, false, true) // store miss under write-allocate
	for _, a := range []uint64{0x0400, 0x0800, 0x0c00, 0x1000} {
		c.Fill(a, false, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("dirty-installed block not written back on eviction")
	}
}

func TestFillExistingUpgrades(t *testing.T) {
	c := smallCache(t, LocalityAware)
	c.Fill(0x0000, false, false)
	ev := c.Fill(0x0000, true, true) // push of already-resident line
	if ev.Valid || ev.Bypassed {
		t.Fatalf("in-place upgrade should not evict: %+v", ev)
	}
	if c.ExplicitBlocks() != 1 {
		t.Fatal("upgrade did not set explicit bit")
	}
	if c.ValidBlocks() != 1 {
		t.Fatal("duplicate block created")
	}
}

func TestLocalityBitProtectsExplicit(t *testing.T) {
	c := smallCache(t, LocalityAware)
	// Three explicit blocks in set 0 (cap is Ways-1 = 3 by default).
	c.Fill(0x0000, true, false)
	c.Fill(0x0400, true, false)
	c.Fill(0x0800, true, false)
	// One implicit block.
	c.Fill(0x0c00, false, false)
	// An implicit fill must evict the implicit block, never an explicit one.
	ev := c.Fill(0x1000, false, false)
	if !ev.Valid || ev.Addr != 0x0c00 || ev.Explicit {
		t.Fatalf("implicit fill evicted %+v, want implicit 0xc00", ev)
	}
	for _, a := range []uint64{0x0000, 0x0400, 0x0800} {
		if !c.Probe(a) {
			t.Fatalf("explicit block %#x lost", a)
		}
	}
}

func TestLocalityBypassWhenSetAllExplicit(t *testing.T) {
	c, err := New(Config{
		Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 4,
		Policy: LocalityAware, MaxExplicitWays: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(0x0000, true, false)
	c.Fill(0x0400, true, false)
	c.Fill(0x0800, true, false)
	// Set 0 has one invalid way; the first implicit fill takes it.
	if ev := c.Fill(0x0c00, false, false); ev.Bypassed {
		t.Fatal("implicit fill bypassed with an invalid way available")
	}
	// Promote the implicit block away? No — instead make all 4 explicit is
	// forbidden; but the implicit one can be evicted by explicit fill.
	ev := c.Fill(0x1000, true, false) // explicit at cap: evicts LRU explicit
	if !ev.Valid || !ev.Explicit {
		t.Fatalf("explicit fill at cap evicted %+v, want explicit victim", ev)
	}
	if c.ExplicitBlocks() != 3 {
		t.Fatalf("explicit blocks = %d, want cap 3", c.ExplicitBlocks())
	}
}

func TestLocalityBypass(t *testing.T) {
	// Force a set where every valid way is explicit, then check an
	// implicit fill bypasses. Use a direct path: 1 set total.
	c, err := New(Config{
		Name: "t", SizeBytes: 256, LineBytes: 64, Ways: 4,
		Policy: LocalityAware, MaxExplicitWays: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(0x0000, true, false)
	c.Fill(0x0040, true, false)
	c.Fill(0x0080, true, false)
	// Fourth way left invalid: implicit fill uses it.
	c.Fill(0x00c0, false, false)
	// Now every way valid, three explicit. Implicit fill evicts the one
	// implicit way.
	ev := c.Fill(0x0100, false, false)
	if ev.Bypassed || ev.Addr != 0x00c0 {
		t.Fatalf("got %+v, want eviction of 0xc0", ev)
	}
	// Invalidate the implicit line and refill explicit up to cap, then
	// manually construct the all-explicit situation via upgrades.
	c.Fill(0x0100, true, false) // upgrade in place to explicit (now 4 explicit? upgrade bypasses cap check)
	ev = c.Fill(0x0140, false, false)
	if !ev.Bypassed {
		t.Fatalf("implicit fill into all-explicit set not bypassed: %+v", ev)
	}
	if c.Stats().Bypasses != 1 {
		t.Fatalf("bypasses = %d, want 1", c.Stats().Bypasses)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t, LRU)
	c.Fill(0x1000, false, false)
	c.Lookup(0x1000, true)
	present, dirty := c.Invalidate(0x1000)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(0x1000) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x9999)
	if present {
		t.Fatal("invalidate of absent line reported present")
	}
}

func TestFlushAll(t *testing.T) {
	c := smallCache(t, LRU)
	c.Fill(0x0000, false, true)
	c.Fill(0x0040, false, false)
	c.Fill(0x0080, false, true)
	if wb := c.FlushAll(); wb != 2 {
		t.Fatalf("FlushAll wrote back %d lines, want 2", wb)
	}
	if c.ValidBlocks() != 0 {
		t.Fatal("blocks remain after flush")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := smallCache(t, LRU)
	c.Fill(0x0000, false, false)
	before := c.Stats()
	c.Probe(0x0000)
	c.Probe(0x4000)
	if c.Stats() != before {
		t.Fatal("Probe changed statistics")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("zero-access hit rate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", s.HitRate())
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || LocalityAware.String() != "locality-aware" {
		t.Fatal("policy names wrong")
	}
	if !strings.Contains(Policy(9).String(), "9") {
		t.Fatal("unknown policy should print its value")
	}
}

// Property: valid blocks never exceed capacity, and — the central II-B5
// invariant — an implicit fill never evicts an explicitly-managed block,
// for any interleaving of fills, upgrades, lookups and invalidations.
// (The explicit-ways cap applies to fresh explicit fills; in-place
// upgrades of resident lines may exceed it, with bypass as the backstop.)
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{
			Name: "p", SizeBytes: 2048, LineBytes: 64, Ways: 4,
			Policy: LocalityAware, MaxExplicitWays: 2,
		})
		for _, op := range ops {
			addr := uint64(op&0x0fff) &^ 63
			switch {
			case op&0x8000 != 0:
				explicit := op&0x4000 != 0
				ev := c.Fill(addr, explicit, op&0x2000 != 0)
				if !explicit && ev.Valid && ev.Explicit {
					return false // implicit fill displaced an explicit block
				}
			case op&0x4000 != 0:
				c.Lookup(addr, op&0x2000 != 0)
			default:
				c.Invalidate(addr)
			}
			if c.ValidBlocks() > 32 { // 2048/64
				return false
			}
			if c.ExplicitBlocks() > c.ValidBlocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup after fill of the same line always hits, regardless of
// interleaved fills to other sets.
func TestFillThenLookupProperty(t *testing.T) {
	f := func(addr uint32, noise []uint16) bool {
		c := MustNew(Config{Name: "p", SizeBytes: 4096, LineBytes: 64, Ways: 8})
		a := uint64(addr)
		c.Fill(a, false, false)
		for _, n := range noise {
			other := uint64(n)
			if c.LineFor(other) == c.LineFor(a) {
				continue
			}
			// Fills to other sets never disturb a's set; fills to a's set
			// may evict it, so restrict noise to different sets.
			if (other>>6)&uint64(c.Sets()-1) == (a>>6)&uint64(c.Sets()-1) {
				continue
			}
			c.Fill(other, false, false)
		}
		return c.Lookup(a, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := MustNew(Config{Name: "b", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	c.Fill(0x1000, false, false)
	for i := 0; i < b.N; i++ {
		c.Lookup(0x1000, false)
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := MustNew(Config{Name: "b", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8})
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*64, false, false)
	}
}
