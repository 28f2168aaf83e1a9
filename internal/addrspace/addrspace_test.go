package addrspace

import (
	"errors"
	"testing"
	"testing/quick"

	"heteromem/internal/mem"
)

func space(t *testing.T, m Model) *Space {
	t.Helper()
	s, err := New(m, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestModelStringsAndParse(t *testing.T) {
	for _, m := range AllModels() {
		parsed, err := ParseModel(m.String())
		if err != nil || parsed != m {
			t.Errorf("round trip %v failed: %v %v", m, parsed, err)
		}
	}
	for in, want := range map[string]Model{"uni": Unified, "dis": Disjoint, "pas": PartiallyShared, "adsm": ADSM} {
		if got, err := ParseModel(in); err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("bogus model parsed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Model(99), 4096); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := New(Unified, 1000); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := New(Unified, 0); err == nil {
		t.Error("zero page size accepted")
	}
}

func TestRegionOf(t *testing.T) {
	if RegionOf(CPUPrivateBase+123) != CPUPrivate {
		t.Error("CPU base misclassified")
	}
	if RegionOf(GPUPrivateBase+123) != GPUPrivate {
		t.Error("GPU base misclassified")
	}
	if RegionOf(SharedBase+123) != Shared {
		t.Error("shared base misclassified")
	}
}

func TestDisjointForbidsShared(t *testing.T) {
	s := space(t, Disjoint)
	if _, err := s.Alloc(4096, Shared); !errors.Is(err, ErrRegionUnsupported) {
		t.Fatalf("disjoint shared alloc: %v, want ErrRegionUnsupported", err)
	}
	if _, err := s.Alloc(4096, CPUPrivate); err != nil {
		t.Fatalf("disjoint CPU alloc failed: %v", err)
	}
}

func TestZeroSizeAllocRejected(t *testing.T) {
	s := space(t, Unified)
	if _, err := s.Alloc(0, CPUPrivate); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
}

func TestAccessibilityMatrix(t *testing.T) {
	// For each model: can (CPU,GPU) access (cpu-private, gpu-private, shared)?
	type row struct {
		model Model
		cpu   [3]bool
		gpu   [3]bool
	}
	rows := []row{
		{Unified, [3]bool{true, true, true}, [3]bool{true, true, true}},
		{Disjoint, [3]bool{true, false, false}, [3]bool{false, true, false}},
		{PartiallyShared, [3]bool{true, false, true}, [3]bool{false, true, true}},
		{ADSM, [3]bool{true, true, true}, [3]bool{false, true, true}},
	}
	addrs := [3]uint64{CPUPrivateBase + 8192, GPUPrivateBase + 8192, SharedBase + 8192}
	for _, r := range rows {
		s := space(t, r.model)
		for i, a := range addrs {
			if got := s.Accessible(mem.CPU, a); got != r.cpu[i] {
				t.Errorf("%v: CPU access to %v = %v, want %v", r.model, RegionOf(a), got, r.cpu[i])
			}
			if got := s.Accessible(mem.GPU, a); got != r.gpu[i] {
				t.Errorf("%v: GPU access to %v = %v, want %v", r.model, RegionOf(a), got, r.gpu[i])
			}
		}
	}
}

func TestCheckAccessUnallocated(t *testing.T) {
	s := space(t, Unified)
	if err := s.CheckAccess(mem.CPU, 0x123456); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("unallocated access: %v", err)
	}
}

func TestDisjointCrossAccessRejected(t *testing.T) {
	s := space(t, Disjoint)
	o, err := s.Alloc(4096, CPUPrivate)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAccess(mem.CPU, o.Base); err != nil {
		t.Fatalf("owner access rejected: %v", err)
	}
	if err := s.CheckAccess(mem.GPU, o.Base); !errors.Is(err, ErrInaccessible) {
		t.Fatalf("cross access: %v, want ErrInaccessible", err)
	}
}

func TestOwnershipLifecycle(t *testing.T) {
	s := space(t, PartiallyShared)
	o, err := s.Alloc(8192, Shared)
	if err != nil {
		t.Fatal(err)
	}
	// Shared objects start CPU-owned (the host initialises them).
	if owner, ok := s.OwnerOf(o.Base); !ok || owner != mem.CPU {
		t.Fatalf("initial owner = %v,%v, want CPU", owner, ok)
	}
	// GPU access while CPU owns: rejected.
	if err := s.CheckAccess(mem.GPU, o.Base); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("GPU access while CPU owns: %v", err)
	}
	// CPU releases, GPU acquires, GPU can access, CPU cannot.
	if err := s.Release(mem.CPU, o); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(mem.GPU, o); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAccess(mem.GPU, o.Base); err != nil {
		t.Fatalf("GPU access after acquire: %v", err)
	}
	if err := s.CheckAccess(mem.CPU, o.Base); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("CPU access after GPU acquire: %v", err)
	}
	if s.Stats().OwnershipChanges != 2 {
		t.Fatalf("ownership changes = %d, want 2", s.Stats().OwnershipChanges)
	}
}

func TestReleaseByNonOwnerRejected(t *testing.T) {
	s := space(t, PartiallyShared)
	o, _ := s.Alloc(4096, Shared)
	if err := s.Release(mem.GPU, o); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("non-owner release: %v", err)
	}
}

func TestOwnershipOnlyUnderPAS(t *testing.T) {
	for _, m := range []Model{Unified, Disjoint, ADSM} {
		s := space(t, m)
		region := CPUPrivate
		if m != Disjoint {
			region = Shared
		}
		o, err := s.Alloc(4096, region)
		if err != nil {
			t.Fatalf("%v alloc: %v", m, err)
		}
		if err := s.Acquire(mem.CPU, o); !errors.Is(err, ErrNoOwnership) {
			t.Errorf("%v: acquire = %v, want ErrNoOwnership", m, err)
		}
		if s.HasOwnership() {
			t.Errorf("%v reports ownership", m)
		}
	}
}

func TestPageTableMappingCosts(t *testing.T) {
	// A shared allocation must be mapped in both page tables under
	// PartiallyShared; a private one in only its own PU's table.
	s := space(t, PartiallyShared)
	if _, err := s.Alloc(2*4096, Shared); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MapUpdates[mem.CPU] != 2 || st.MapUpdates[mem.GPU] != 2 {
		t.Fatalf("shared mapping updates %v, want 2 each", st.MapUpdates)
	}
	if _, err := s.Alloc(4096, CPUPrivate); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.MapUpdates[mem.CPU] != 3 || st.MapUpdates[mem.GPU] != 2 {
		t.Fatalf("private mapping updates %v", st.MapUpdates)
	}

	// Unified with discrete memories maps everything everywhere.
	u := space(t, Unified)
	if _, err := u.Alloc(4096, CPUPrivate); err != nil {
		t.Fatal(err)
	}
	ust := u.Stats()
	if ust.MapUpdates[mem.CPU] != 1 || ust.MapUpdates[mem.GPU] != 1 {
		t.Fatalf("unified mapping updates %v, want 1 each", ust.MapUpdates)
	}
}

func TestADSMAsymmetry(t *testing.T) {
	s := space(t, ADSM)
	cpuObj, _ := s.Alloc(4096, CPUPrivate)
	shObj, _ := s.Alloc(4096, Shared)
	// CPU reaches everything, including shared (GPU-resident) data.
	if err := s.CheckAccess(mem.CPU, shObj.Base); err != nil {
		t.Fatalf("CPU to shared: %v", err)
	}
	// GPU cannot reach CPU-private data.
	if err := s.CheckAccess(mem.GPU, cpuObj.Base); !errors.Is(err, ErrInaccessible) {
		t.Fatalf("GPU to CPU-private: %v", err)
	}
	if err := s.CheckAccess(mem.GPU, shObj.Base); err != nil {
		t.Fatalf("GPU to shared: %v", err)
	}
}

// Property: allocations never overlap, and every allocation's first
// byte is accessible to a PU that maps its region.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint16, regionSel []uint8) bool {
		s := MustNew(PartiallyShared, 4096)
		n := len(sizes)
		if len(regionSel) < n {
			n = len(regionSel)
		}
		var objs []Object
		for i := 0; i < n && i < 32; i++ {
			size := uint64(sizes[i])%20000 + 1
			r := Region(regionSel[i] % uint8(NumRegions))
			o, err := s.Alloc(size, r)
			if err != nil {
				return false
			}
			objs = append(objs, o)
		}
		for i := range objs {
			for j := i + 1; j < len(objs); j++ {
				a, b := objs[i], objs[j]
				if a.Base < b.Base+b.Size && b.Base < a.Base+a.Size {
					return false // overlap
				}
			}
			pu := mem.CPU
			if objs[i].Region == GPUPrivate {
				pu = mem.GPU
			}
			if s.CheckAccess(pu, objs[i].Base) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := MustNew(PartiallyShared, 4096)
		if _, err := s.Alloc(8192, Shared); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckAccess(b *testing.B) {
	s := MustNew(PartiallyShared, 4096)
	o, _ := s.Alloc(1<<20, Shared)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.CheckAccess(mem.CPU, o.Base+uint64(i)%o.Size)
	}
}
