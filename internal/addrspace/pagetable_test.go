package addrspace

import (
	"math"
	"math/rand"
	"testing"

	"heteromem/internal/mem"
)

// TestPageTableMatchesPerPageReference runs seeded alloc, ownership and
// rebuild sequences on every model and checks the page-table map-update
// counts against a reference that maps every page of an allocation one
// at a time in each PU that must see it.
func TestPageTableMatchesPerPageReference(t *testing.T) {
	for _, m := range AllModels() {
		for _, pageSize := range []uint64{4096, 64} {
			rng := rand.New(rand.NewSource(int64(m)*7919 + int64(pageSize)))
			s := MustNew(m, pageSize)
			var want [mem.NumPUs]uint64
			var live []Object
			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					size := uint64(rng.Intn(6))*pageSize + uint64(rng.Intn(int(pageSize))) + 1
					o, err := s.Alloc(size, Region(rng.Intn(int(NumRegions))))
					if err != nil {
						continue
					}
					for _, pu := range s.mappedPUs(o.Region) {
						for p := uint64(0); p*pageSize < o.Size; p++ {
							want[pu]++
						}
					}
					live = append(live, o)
				case op < 8 && len(live) > 0 && s.HasOwnership():
					o := live[rng.Intn(len(live))]
					pu := mem.PU(rng.Intn(int(mem.NumPUs)))
					if rng.Intn(2) == 0 {
						_ = s.Acquire(pu, o)
					} else {
						_ = s.Release(pu, o)
					}
				case op == 9 && rng.Intn(20) == 0:
					s = MustNew(m, pageSize)
					want = [mem.NumPUs]uint64{}
					live = nil
				}
				if got := s.Stats().MapUpdates; got != want {
					t.Fatalf("%v step %d: MapUpdates = %v, want %v", m, step, got, want)
				}
				if got := s.LiveObjects(); got != len(live) {
					t.Fatalf("%v step %d: %d live objects, want %d", m, step, got, len(live))
				}
			}
		}
	}
}

// TestHugeAllocIsConstantTime maps a 3 GiB object in both PUs: the space
// allocates nothing per page, yet counts every page and reaches the
// object's last byte.
func TestHugeAllocIsConstantTime(t *testing.T) {
	const size = 3 << 30
	perAlloc := func(size uint64) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := MustNew(Unified, 4096).Alloc(size, Shared); err != nil {
				t.Fatal(err)
			}
		})
	}
	if huge, page := perAlloc(size), perAlloc(4096); huge != page {
		t.Errorf("a new space allocated %.0f times for a 3 GiB object, %.0f for one page", huge, page)
	}
	s := MustNew(Unified, 4096)
	o, err := s.Alloc(size, Shared)
	if err != nil {
		t.Fatal(err)
	}
	for pu := mem.PU(0); pu < mem.NumPUs; pu++ {
		if got := s.Stats().MapUpdates[pu]; got != size/4096 {
			t.Errorf("MapUpdates[%v] = %d, want %d", pu, got, size/4096)
		}
		if err := s.CheckAccess(pu, o.Base+size-1); err != nil {
			t.Errorf("CheckAccess(%v, last byte) = %v", pu, err)
		}
	}
}

// TestAllocBeyondRegionRejected checks an allocation that would run past
// its region's end fails instead of overlapping the next region.
func TestAllocBeyondRegionRejected(t *testing.T) {
	s := MustNew(PartiallyShared, 4096)
	if _, err := s.Alloc(GPUPrivateBase, CPUPrivate); err == nil {
		t.Error("CPU-private allocation past the GPU-private base accepted")
	}
	if _, err := s.Alloc(SharedBase-GPUPrivateBase, GPUPrivate); err != nil {
		t.Errorf("allocation filling the GPU-private region: %v", err)
	}
	if _, err := s.Alloc(1, GPUPrivate); err == nil {
		t.Error("allocation in a full region accepted")
	}
	if _, err := s.Alloc(math.MaxUint64-SharedBase+1, Shared); err != nil {
		t.Errorf("allocation filling the shared region: %v", err)
	}
	if _, err := s.Alloc(1, Shared); err == nil {
		t.Error("allocation past 2^64 accepted")
	}
	if _, err := New(Unified, 2*GPUPrivateBase); err == nil {
		t.Error("page size larger than a region accepted")
	}
	if st := s.Stats(); st.Allocs != 2 {
		t.Errorf("allocs = %d, want 2", st.Allocs)
	}
}
