package arena

import "testing"

func TestNilArenaFallsBackToMake(t *testing.T) {
	s := Make[uint64](nil, 8)
	if len(s) != 8 {
		t.Fatalf("len = %d, want 8", len(s))
	}
	s[0] = 1 // must be writable
}

func TestMakeZeroesAndSeparates(t *testing.T) {
	a := New()
	x := Make[uint64](a, 4)
	y := Make[uint64](a, 4)
	for i := range x {
		x[i] = 0xdead
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %#x, want 0 (spans overlap?)", i, v)
		}
	}
	// Capacity is clamped, so appends cannot bleed into the next span.
	x = append(x, 0xbeef)
	if y[0] != 0 {
		t.Fatal("append to x overwrote y")
	}
}

func TestResetReissuesZeroedMemory(t *testing.T) {
	a := New()
	x := Make[uint64](a, 16)
	for i := range x {
		x[i] = ^uint64(0)
	}
	before := a.Bytes()
	a.Reset()
	y := Make[uint64](a, 16)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("recycled span not zeroed at %d: %#x", i, v)
		}
	}
	if a.Bytes() != before {
		t.Fatalf("reset+reuse grew the arena: %d -> %d bytes", before, a.Bytes())
	}
}

func TestResetIsO1NoReallocation(t *testing.T) {
	a := New()
	// Fill several generations; after the first, steady-state reuse must
	// not allocate new slabs.
	for i := 0; i < 4; i++ {
		for j := 0; j < 100; j++ {
			Make[uint64](a, 100)
		}
		if i == 0 {
			continue
		}
		before := a.Bytes()
		a.Reset()
		for j := 0; j < 100; j++ {
			Make[uint64](a, 100)
		}
		if a.Bytes() != before {
			t.Fatalf("generation %d grew the arena: %d -> %d", i, before, a.Bytes())
		}
		a.Reset()
	}
}

func TestMixedTypesShareOneArena(t *testing.T) {
	type rec struct{ a, b uint64 }
	a := New()
	u := Make[uint64](a, 10)
	r := Make[rec](a, 10)
	u[9] = 7
	r[9] = rec{1, 2}
	if u[9] != 7 || r[9] != (rec{1, 2}) {
		t.Fatal("typed pools interfered")
	}
	if a.Bytes() == 0 {
		t.Fatal("accounting missing")
	}
}

func TestOversizedRequestGetsOwnSlab(t *testing.T) {
	a := New()
	const n = 3 * slabMinBytes / 8
	big := Make[uint64](a, n)
	if len(big) != n {
		t.Fatalf("len = %d", len(big))
	}
	big[n-1] = 1
}

func TestLargeElementsFirstSlab(t *testing.T) {
	// A type's first batching slab holds slabMinBytes, not a fixed
	// element count: a few carvings of a large element type retain at
	// most that, and an element larger than it retains only itself.
	type bank struct{ state [24]uint64 }
	a := New()
	for range 3 {
		Make[bank](a, 2)
	}
	if a.Bytes() > slabMinBytes {
		t.Fatalf("three carvings of a %d-byte type retained %d bytes, want at most %d", 24*8, a.Bytes(), slabMinBytes)
	}
	type huge struct{ b [2 * slabMinBytes]byte }
	b := New()
	Make[huge](b, 1)
	if got := b.Bytes(); got != 2*slabMinBytes {
		t.Fatalf("one %d-byte element retained %d bytes", 2*slabMinBytes, got)
	}
	type empty struct{}
	if e := Make[empty](New(), 3); len(e) != 3 {
		t.Fatalf("len = %d, want 3", len(e))
	}
}

func TestLargeRequestsExactFit(t *testing.T) {
	// Requests at or above exactCut retain exactly their own footprint:
	// no doubling past a replay ring or cache column, no matter how many
	// arrive in sequence.
	a := New()
	const n = 4 * exactCut
	for i := 0; i < 3; i++ {
		before := a.Bytes()
		s := Make[uint64](a, n)
		if len(s) != n {
			t.Fatalf("len = %d", len(s))
		}
		if got, want := a.Bytes()-before, uintptr(n)*8; got != want {
			t.Fatalf("carve %d retained %d bytes, want exactly %d", i, got, want)
		}
	}
}

func TestBatchingSlabsCapped(t *testing.T) {
	// Small carvings ride doubling slabs, but the doubling stops at
	// slabCap: after a long run of small requests, the marginal retained
	// footprint per request approaches its exact size.
	a := New()
	total := 0
	for total < 16*slabCap {
		Make[uint64](a, 64)
		total += 64
	}
	// Worst case: every slab full except the last (≤ slabCap elements),
	// plus the capped-geometry prefix (< 2*slabCap elements).
	if max := uintptr(total+3*slabCap) * 8; a.Bytes() > max {
		t.Fatalf("retained %d bytes for %d carved, cap implies ≤ %d", a.Bytes(), total*8, max)
	}
}

func TestExactCarvingsStrandNoBatchingRoom(t *testing.T) {
	// An L3 tile carves a large tag column between small state columns
	// of the same type. The large carving must not end the current
	// batching slab: while that slab has room for the next small
	// carving, no batching slab is opened.
	a := New()
	const big, small = 2 * exactCut, slabMinBytes / 8
	room := 0 // free elements left in the current batching slab
	for i := 0; i < 16; i++ {
		before := a.Bytes()
		Make[uint64](a, big)
		if got, want := a.Bytes()-before, uintptr(big)*8; got != want {
			t.Fatalf("round %d: exact carving retained %d bytes, want %d", i, got, want)
		}
		before = a.Bytes()
		Make[uint64](a, small)
		grew := int(a.Bytes()-before) / 8
		switch {
		case grew != 0 && room >= small:
			t.Fatalf("round %d: opened a %d-element batching slab with %d elements free in the current one", i, grew, room)
		case grew != 0:
			room = grew - small
		default:
			room -= small
		}
	}
}

func BenchmarkMakeSteadyState(b *testing.B) {
	a := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			Make[uint64](a, 256)
		}
		a.Reset()
	}
}

func TestGrowKeepsContentsAndRoundsUp(t *testing.T) {
	for _, a := range []*Arena{nil, New()} {
		s := Grow[uint64](a, nil, 3)
		if len(s) != 3 || cap(s) != 4 {
			t.Fatalf("len %d cap %d, want 3 and 4", len(s), cap(s))
		}
		s[0], s[2] = 7, 9
		if r := Grow(a, s, 4); &r[0] != &s[0] {
			t.Fatal("growth within capacity moved the buffer")
		}
		g := Grow(a, s, 5)
		if len(g) != 5 || cap(g) != 8 || g[0] != 7 || g[2] != 9 || g[3] != 0 || g[4] != 0 {
			t.Fatalf("grown to %v (cap %d), want [7 0 9 0 0] with cap 8", g, cap(g))
		}
	}
}

func TestGrowStrandsLogarithmically(t *testing.T) {
	// Growing one buffer element by element to n carves at most
	// log2(n)+1 spans, so the arena retains under 4n elements.
	a := New()
	const n = 1 << 14
	var s []uint64
	for i := 1; i <= n; i++ {
		s = Grow(a, s, i)
	}
	if got := a.Bytes(); got > 4*n*8 {
		t.Fatalf("growing to %d elements retained %d bytes, want at most %d", n, got, 4*n*8)
	}
}
