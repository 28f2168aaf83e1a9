// Package arena provides a typed bump allocator for simulator memory.
// Building a simulator carves dozens of metadata slices — cache tag
// arrays, MSHR files, core replay rings, trace buffers — and running it
// grows a few more lazily: DRAM-cache directory chunks, a GPU replay
// ring that outgrows its first size. A sweep harness builds one
// simulator per cell, each on its worker's rewound arena. The arena
// batches those allocations into large per-type slabs, so a simulator's
// whole life costs a handful of slab allocations instead of hundreds of
// individual ones, and the garbage collector sees a few long-lived
// objects instead of a cloud of small ones. Each type keeps two slab
// lists, each with its own cursor: doubling batching slabs for small
// carvings, and exact-fit slabs for large ones (replay rings, L3 tag
// columns, directory chunks), which take no batching room and strand
// none.
//
// Reset rewinds every slab in O(slabs) — it does not zero retained
// memory. Zeroing happens at carve time instead (Make clears exactly the
// span it hands out), so a recycled arena is indistinguishable from a
// fresh one to its callers while Reset stays effectively O(1) between
// the cells a sweep worker runs. A simulator built on a rewound arena
// therefore cannot inherit state from the one built before it.
//
// A simulator built from an arena carves from it for its whole life, so
// it must run on the goroutine that owns the arena, and the arena may be
// Reset only once that simulator is dropped.
//
// All helpers accept a nil *Arena and degrade to plain make, so
// arena-aware constructors need no branching at call sites.
package arena

import (
	"math/bits"
	"reflect"
)

const (
	// slabMinBytes is the smallest footprint of a type's first batching
	// slab, however large its elements; batching slabs double as a
	// type's demand grows, bounding slab count logarithmically. A
	// minimum in elements would make a large element type's first slab
	// large, though a type such as the DRAM bank state asks for a few
	// dozen elements.
	slabMinBytes = 8 << 10
	// exactCut sends requests of at least this many elements to their own
	// exact-fit slab instead of the doubling curve. Large carvings (replay
	// rings, L3 tag columns) would otherwise trigger slabs up to twice
	// their size and pin the overshoot for the arena's lifetime —
	// measured as +30% allocated bytes on the Figure 5 sweep. Exact slabs
	// sit on a list of their own, so a large carving between two small
	// ones leaves the current batching slab open to the second.
	exactCut = 4096
	// slabCap bounds the batching-slab doubling, limiting the tail waste
	// of the small-carving slabs to one slabCap-sized slab per type.
	slabCap = 32768
)

// Arena is a collection of per-element-type bump-allocated slabs. It is
// not safe for concurrent use: each sweep worker owns one arena, matching
// the one-goroutine-per-simulator execution model.
type Arena struct {
	pools map[reflect.Type]pooler
	// bytes is the total retained slab footprint, for introspection.
	bytes uintptr
}

// New returns an empty arena.
func New() *Arena {
	return &Arena{pools: make(map[reflect.Type]pooler)}
}

// Reset rewinds every pool so the next Make calls re-carve the retained
// slabs from their start. Memory handed out before Reset must no longer
// be used; it will be re-issued (zeroed) by later Makes.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for _, p := range a.pools {
		p.rewind()
	}
}

// Bytes returns the total retained slab footprint.
func (a *Arena) Bytes() uintptr {
	if a == nil {
		return 0
	}
	return a.bytes
}

// pooler is the type-erased view of a pool, for Reset.
type pooler interface{ rewind() }

// pool bump-allocates []T spans out of two slab lists: progressively
// larger batching slabs for carvings under exactCut, and exact-fit slabs
// for the rest.
type pool[T any] struct {
	batch slabs[T]
	exact slabs[T]
	small int // size of the next batching slab (doubles up to slabCap)
}

func (p *pool[T]) rewind() {
	p.batch.rewind()
	p.exact.rewind()
}

// slabs is one bump-allocated slab list with its carving cursor.
type slabs[T any] struct {
	list [][]T
	cur  int // slab being carved
	off  int // next free element in list[cur]
}

func (l *slabs[T]) rewind() { l.cur, l.off = 0, 0 }

// fits advances the cursor through retained slabs until one has room
// for n elements, reporting whether one did.
func (l *slabs[T]) fits(n int) bool {
	for l.cur < len(l.list) && len(l.list[l.cur])-l.off < n {
		l.cur++
		l.off = 0
	}
	return l.cur < len(l.list)
}

// carve hands out the next n elements of the current slab, zeroed.
func (l *slabs[T]) carve(n int) []T {
	s := l.list[l.cur][l.off : l.off+n : l.off+n]
	l.off += n
	clear(s)
	return s
}

// Make carves a zeroed length-n []T from the arena (capacity exactly n:
// growing the result with append escapes to the ordinary heap, which is
// safe but defeats the batching — size correctly instead). A nil arena
// returns make([]T, n).
func Make[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	if n == 0 {
		return []T{}
	}
	var zero T
	rt := reflect.TypeOf(&zero)
	p, ok := a.pools[rt].(*pool[T])
	if !ok {
		p = &pool[T]{}
		a.pools[rt] = p
	}
	l, size := &p.exact, n
	if n < exactCut {
		l = &p.batch
	}
	if !l.fits(n) {
		// Small requests batch into doubling slabs so hundreds of little
		// carvings still cost a logarithmic number of allocations.
		if n < exactCut {
			p.small = max(p.small, slabMinBytes/max(int(rt.Elem().Size()), 1), 1)
			size = max(n, p.small)
			p.small = min(2*p.small, slabCap)
		}
		l.list = append(l.list, make([]T, size))
		a.bytes += uintptr(size) * rt.Elem().Size()
	}
	return l.carve(n)
}

// Grow returns s resliced to length n when its capacity allows.
// Otherwise it copies s into a span carved from a (plain make for a nil
// arena) whose capacity is n rounded up to a power of two, with the
// elements past len(s) zeroed. A buffer grown over a simulator's life
// therefore strands a logarithmic number of carvings, all reclaimed by
// the arena's next Reset.
func Grow[T any](a *Arena, s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	g := Make[T](a, 1<<bits.Len(uint(n-1)))
	copy(g, s)
	return g[:n]
}
