package xlat

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTLBValidation(t *testing.T) {
	bad := []struct {
		entries, ways int
		page          uint64
	}{
		{0, 1, 4096}, {100, 4, 4096}, {64, 3, 4096}, {64, 4, 1000}, {64, 4, 0},
	}
	for i, c := range bad {
		if _, err := NewTLB(c.entries, c.ways, c.page); err == nil {
			t.Errorf("bad TLB config %d accepted", i)
		}
	}
	if _, err := NewTLB(64, 4, 4096); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestTLBHitAfterMiss(t *testing.T) {
	tl := MustNewTLB(64, 4, 4096)
	if tl.Lookup(0x12345) {
		t.Fatal("cold TLB hit")
	}
	if !tl.Lookup(0x12345) {
		t.Fatal("second lookup missed")
	}
	if !tl.Lookup(0x12fff) {
		t.Fatal("same-page lookup missed")
	}
	if tl.Lookup(0x13000) {
		t.Fatal("next page hit")
	}
}

func TestTLBReach(t *testing.T) {
	small := MustNewTLB(64, 4, 4096)
	large := MustNewTLB(64, 4, 2<<20)
	if small.Reach() != 64*4096 {
		t.Errorf("small reach = %d", small.Reach())
	}
	if large.Reach() != 64*(2<<20) {
		t.Errorf("large reach = %d", large.Reach())
	}
	if !strings.Contains(large.String(), "entries") {
		t.Errorf("String() = %q", large.String())
	}
}

func TestLargePagesCoverStreamingSet(t *testing.T) {
	// Section II-A1: GPUs use large pages to accommodate high stream
	// locality. Walk an 8 MB stream with 4 KB vs 2 MB pages.
	const streamBytes = 8 << 20
	walk := func(pageSize uint64) float64 {
		tl := MustNewTLB(64, 4, pageSize)
		var lookups, misses int
		for pass := 0; pass < 2; pass++ {
			for a := uint64(0); a < streamBytes; a += 64 {
				lookups++
				if !tl.Lookup(a) {
					misses++
				}
			}
		}
		return float64(misses) / float64(lookups)
	}
	smallRate := walk(4096)
	largeRate := walk(2 << 20)
	if largeRate >= smallRate {
		t.Fatalf("large pages (%.4f) not better than small (%.4f)", largeRate, smallRate)
	}
	if largeRate > 0.001 {
		t.Fatalf("2MB pages should nearly eliminate misses on 8MB stream: %.4f", largeRate)
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	// Direct-ish: 4 entries, 4 ways = 1 set.
	tl := MustNewTLB(4, 4, 4096)
	for p := uint64(0); p < 4; p++ {
		tl.Lookup(p * 4096)
	}
	tl.Lookup(0)        // refresh page 0
	tl.Lookup(9 * 4096) // evicts LRU (page 1)
	if !tl.Lookup(0) {  // page 0 must survive
		t.Fatal("MRU page evicted")
	}
	if tl.Lookup(1 * 4096) { // page 1 must be gone
		t.Fatal("LRU page survived")
	}
}

// Flush (a shootdown) invalidates every entry.
func TestTLBInvalidateAndFlush(t *testing.T) {
	tl := MustNewTLB(16, 4, 4096)
	tl.Lookup(0x4000)
	tl.Lookup(0x8000)
	tl.Flush()
	if tl.Lookup(0x4000) || tl.Lookup(0x8000) {
		t.Fatal("hit after flush")
	}
}

// Property: a second lookup of any address immediately after the first
// always hits.
func TestTLBRepeatHitProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		tl := MustNewTLB(32, 4, 4096)
		for _, a := range addrs {
			tl.Lookup(uint64(a))
			if !tl.Lookup(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTLBLookup(b *testing.B) {
	tl := MustNewTLB(64, 4, 4096)
	for i := 0; i < b.N; i++ {
		tl.Lookup(uint64(i%1024) * 4096)
	}
}
