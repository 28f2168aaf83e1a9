package addrspace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"heteromem/internal/mem"
)

// pageTables is the reference page table: one map entry per mapped page,
// filled and emptied page by page as the space's Alloc and Free describe.
type pageTables struct {
	pt         [mem.NumPUs]map[uint64]uint64
	nextFrame  [mem.NumPUs]uint64
	mapUpdates [mem.NumPUs]uint64
}

func newPageTables() *pageTables {
	var r pageTables
	for pu := range r.pt {
		r.pt[pu] = make(map[uint64]uint64)
	}
	return &r
}

func (r *pageTables) alloc(s *Space, o Object) {
	for _, pu := range s.mappedPUs(o.Region) {
		for p := uint64(0); p < (o.Size+s.pageSize-1)/s.pageSize; p++ {
			r.pt[pu][o.Base/s.pageSize+p] = r.nextFrame[pu]
			r.nextFrame[pu]++
			r.mapUpdates[pu]++
		}
	}
}

func (r *pageTables) free(s *Space, o Object) {
	for _, pu := range s.mappedPUs(o.Region) {
		for p := uint64(0); p < (o.Size+s.pageSize-1)/s.pageSize; p++ {
			delete(r.pt[pu], o.Base/s.pageSize+p)
			r.mapUpdates[pu]++
		}
	}
}

func (r *pageTables) translate(s *Space, pu mem.PU, addr uint64) (uint64, error) {
	if err := s.CheckAccess(pu, addr); err != nil {
		return 0, err
	}
	vpn := addr / s.pageSize
	frame, ok := r.pt[pu][vpn]
	if !ok {
		return 0, fmt.Errorf("%w: no mapping for %v page %#x", ErrNotAllocated, pu, vpn)
	}
	return frame*s.pageSize + addr%s.pageSize, nil
}

// TestPageTableMatchesPerPageReference runs seeded alloc, free,
// ownership and translate sequences on every model and checks each
// translation (error text included), MappedPages and the map-update
// counts against the per-page reference. Frees sometimes name the
// wrong region, which unmaps the PUs that region maps, not the object's.
func TestPageTableMatchesPerPageReference(t *testing.T) {
	for _, m := range AllModels() {
		for _, pageSize := range []uint64{4096, 64} {
			rng := rand.New(rand.NewSource(int64(m)*7919 + int64(pageSize)))
			s := MustNew(m, pageSize)
			ref := newPageTables()
			var live, dead []Object
			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(10); {
				case op < 3:
					size := uint64(rng.Intn(6))*pageSize + uint64(rng.Intn(int(pageSize))) + 1
					o, err := s.Alloc(size, Region(rng.Intn(int(NumRegions))))
					if err != nil {
						continue
					}
					ref.alloc(s, o)
					live = append(live, o)
				case op < 5 && len(live) > 0:
					i := rng.Intn(len(live))
					o := live[i]
					if rng.Intn(4) == 0 {
						o.Region = Region(rng.Intn(int(NumRegions)))
					}
					if err := s.Free(o); err != nil {
						t.Fatalf("%v step %d: free: %v", m, step, err)
					}
					ref.free(s, o)
					dead = append(dead, live[i])
					live = append(live[:i], live[i+1:]...)
				case op < 6 && len(live) > 0 && s.HasOwnership():
					o := live[rng.Intn(len(live))]
					pu := mem.PU(rng.Intn(int(mem.NumPUs)))
					if rng.Intn(2) == 0 {
						_ = s.Acquire(pu, o)
					} else {
						_ = s.Release(pu, o)
					}
				case op == 9 && rng.Intn(20) == 0:
					s.Reset()
					ref = newPageTables()
					live, dead = nil, nil
				default:
					pool := live
					if len(dead) > 0 && rng.Intn(4) == 0 {
						pool = dead
					}
					if len(pool) == 0 {
						continue
					}
					o := pool[rng.Intn(len(pool))]
					addr := o.Base + uint64(rng.Int63n(int64(o.Size+pageSize)))
					pu := mem.PU(rng.Intn(int(mem.NumPUs)))
					got, gotErr := s.Translate(pu, addr)
					want, wantErr := ref.translate(s, pu, addr)
					if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%v step %d: Translate(%v, %#x) = %#x, %v; want %#x, %v",
							m, step, pu, addr, got, gotErr, want, wantErr)
					}
				}
				for pu := mem.PU(0); pu < mem.NumPUs; pu++ {
					if got, want := s.MappedPages(pu), len(ref.pt[pu]); got != want {
						t.Fatalf("%v step %d: MappedPages(%v) = %d, want %d", m, step, pu, got, want)
					}
				}
				if got := s.Stats().MapUpdates; got != ref.mapUpdates {
					t.Fatalf("%v step %d: MapUpdates = %v, want %v", m, step, got, ref.mapUpdates)
				}
			}
		}
	}
}

// TestHugeAllocIsConstantTime maps a 3 GiB object in both page tables:
// the space records one run per PU, not 786,432 pages, and still
// translates its last byte and counts every page.
func TestHugeAllocIsConstantTime(t *testing.T) {
	const size = 3 << 30
	s := MustNew(Unified, 4096)
	var o Object
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		var err error
		if o, err = s.Alloc(size, Shared); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Alloc on a reset space allocated %.0f times", allocs)
	}
	for pu := mem.PU(0); pu < mem.NumPUs; pu++ {
		if got := s.MappedPages(pu); got != size/4096 {
			t.Errorf("MappedPages(%v) = %d, want %d", pu, got, size/4096)
		}
		if got := s.Stats().MapUpdates[pu]; got != size/4096 {
			t.Errorf("MapUpdates[%v] = %d, want %d", pu, got, size/4096)
		}
		p, err := s.Translate(pu, o.Base+size-1)
		if err != nil || p != size-1 {
			t.Errorf("Translate(%v, last byte) = %#x, %v; want %#x", pu, p, err, size-1)
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
