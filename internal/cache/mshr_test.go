package cache

import (
	"testing"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
)

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	ready := m.Allocate(0x1000, 0, 100)
	if ready != 100 {
		t.Fatalf("primary ready = %v, want 100", ready)
	}
	// Secondary miss to the same line while outstanding merges.
	r, ok := m.Outstanding(0x1000, 50)
	if !ok || r != 100 {
		t.Fatalf("Outstanding = (%v,%v), want (100,true)", r, ok)
	}
	// A merge issues nothing: the file still holds the one entry.
	if n := m.InFlight(50); n != 1 {
		t.Fatalf("in flight after merge = %d, want 1", n)
	}
	// After the fill completes, the entry expires.
	if _, ok := m.Outstanding(0x1000, 150); ok {
		t.Fatal("expired entry still outstanding")
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x1000, 0, 100)
	m.Allocate(0x2000, 0, 200)
	// Third primary miss at t=0 with a 50-cycle service time: must wait
	// until the earliest entry (100) retires, so it completes at 50+100.
	ready := m.Allocate(0x3000, 0, 50)
	if ready != 150 {
		t.Fatalf("stalled ready = %v, want 150", ready)
	}
	// The stall retired the earliest entry to make room.
	if n := m.InFlight(0); n != 2 {
		t.Fatalf("in flight after stall = %d, want 2", n)
	}
	if _, ok := m.Outstanding(0x1000, 0); ok {
		t.Fatal("entry retired by the stall still outstanding")
	}
}

func TestMSHRUnlimited(t *testing.T) {
	m := NewMSHR(0)
	for i := 0; i < 100; i++ {
		ready := m.Allocate(uint64(i)*64, 0, clock.Time(100+i))
		if ready != clock.Time(100+i) {
			t.Fatalf("unlimited MSHR delayed allocation %d", i)
		}
	}
}

// An uncapped file built from an arena grows from it: on a rewound
// arena that has seen the growth once, building the file and filling it
// with 100 outstanding misses takes at most the file's own header from
// the heap.
func TestMSHRUnlimitedGrowsFromArena(t *testing.T) {
	a := arena.New()
	fill := func() {
		a.Reset()
		m := NewMSHRIn(a, 0)
		for i := 0; i < 100; i++ {
			m.Allocate(uint64(i)*64, 0, clock.Time(100+i))
		}
		if n := m.InFlight(0); n != 100 {
			t.Fatalf("in flight = %d, want 100", n)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs > 1 {
		t.Errorf("recycled uncapped file made %.0f heap allocations, want at most 1", allocs)
	}
}

func TestMSHRInFlight(t *testing.T) {
	m := NewMSHR(8)
	m.Allocate(0x0, 0, 100)
	m.Allocate(0x40, 0, 200)
	if n := m.InFlight(50); n != 2 {
		t.Fatalf("in flight at 50 = %d, want 2", n)
	}
	if n := m.InFlight(150); n != 1 {
		t.Fatalf("in flight at 150 = %d, want 1", n)
	}
	if n := m.InFlight(300); n != 0 {
		t.Fatalf("in flight at 300 = %d, want 0", n)
	}
}
