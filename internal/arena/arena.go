// Package arena provides a typed bump allocator for simulator
// construction. Building a simulator carves dozens of metadata slices —
// cache tag arrays, MSHR files, core replay rings, trace buffers — and a
// sweep harness builds one simulator per (worker, design point). The
// arena batches those small allocations into large per-type slabs, so a
// build costs a handful of slab allocations instead of hundreds of
// individual ones, and the garbage collector sees a few long-lived
// objects instead of a cloud of small ones.
//
// Reset rewinds every slab in O(slabs) — it does not zero retained
// memory. Zeroing happens at carve time instead (Make clears exactly the
// span it hands out), so a recycled arena is indistinguishable from a
// fresh one to its callers while Reset stays effectively O(1) between
// the design points a sweep worker moves through.
//
// All helpers accept a nil *Arena and degrade to plain make, so
// arena-aware constructors need no branching at call sites.
package arena

import "reflect"

const (
	// slabMin is the smallest element count a fresh batching slab holds;
	// batching slabs double as a type's demand grows, bounding slab count
	// logarithmically.
	slabMin = 1024
	// exactCut sends requests of at least this many elements to their own
	// exact-fit slab instead of the doubling curve. Large carvings (replay
	// rings, L3 tag columns) would otherwise trigger slabs up to twice
	// their size and pin the overshoot for the arena's lifetime —
	// measured as +30% allocated bytes on the Figure 5 sweep.
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

// pool bump-allocates []T spans out of progressively larger slabs.
type pool[T any] struct {
	slabs [][]T
	cur   int // slab being carved
	off   int // next free element in slabs[cur]
	small int // size of the next batching slab (doubles up to slabCap)
}

func (p *pool[T]) rewind() { p.cur, p.off = 0, 0 }

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
	// Advance through retained slabs until one has room.
	for p.cur < len(p.slabs) && len(p.slabs[p.cur])-p.off < n {
		p.cur++
		p.off = 0
	}
	if p.cur == len(p.slabs) {
		// Large requests get an exact-fit slab; small ones batch into
		// doubling slabs so hundreds of little carvings still cost a
		// logarithmic number of allocations.
		size := n
		if n < exactCut {
			if p.small == 0 {
				p.small = slabMin
			}
			if size < p.small {
				size = p.small
			}
			if p.small < slabCap {
				p.small *= 2
			}
		}
		p.slabs = append(p.slabs, make([]T, size))
		a.bytes += uintptr(size) * rt.Elem().Size()
	}
	s := p.slabs[p.cur][p.off : p.off+n : p.off+n]
	p.off += n
	clear(s)
	return s
}
