// Package addrspace implements the memory address space design options
// of Section II-A: unified, disjoint, partially shared, and asymmetric
// distributed shared memory (ADSM). A Space manages virtual allocation in
// three regions (CPU-private, GPU-private, shared), counts the page-table
// mappings each allocation costs every PU, and keeps ownership control
// for the partially shared space (the LRB programming model).
//
// The package captures the semantic differences the paper studies:
// which PU may access which region under each model, who must maintain
// page-table mappings (the dual-mapping overhead of partially shared and
// virtually-unified spaces), and where ownership transfers arise.
// Translation timing is the xlat front-end's (internal/memsys), and
// first-touch page faults are the programming model's (internal/model).
package addrspace

import (
	"errors"
	"fmt"

	"heteromem/internal/mem"
	"heteromem/internal/obs"
)

// Model is one of the four address-space design options (Figure 1).
type Model uint8

const (
	// Unified is a single address space visible to every PU (Figure 1a).
	Unified Model = iota
	// Disjoint gives each PU a private space; all sharing is by explicit
	// copies (Figure 1b).
	Disjoint
	// PartiallyShared adds a shared region to per-PU private spaces, with
	// ownership control (Figure 1c; the LRB model).
	PartiallyShared
	// ADSM lets the CPU address everything while the GPU sees only its
	// own space; shared data lives in GPU memory (Figure 1d; GMAC).
	ADSM
	// NumModels is the number of models.
	NumModels
)

var modelNames = [NumModels]string{"unified", "disjoint", "partially-shared", "adsm"}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseModel returns the model named s (as produced by String, plus the
// paper's abbreviations UNI/DIS/PAS/ADSM, case-sensitive lowercase).
func ParseModel(s string) (Model, error) {
	switch s {
	case "unified", "uni":
		return Unified, nil
	case "disjoint", "dis":
		return Disjoint, nil
	case "partially-shared", "pas":
		return PartiallyShared, nil
	case "adsm":
		return ADSM, nil
	}
	return 0, fmt.Errorf("addrspace: unknown model %q", s)
}

// MarshalText implements encoding.TextMarshaler so models serialise as
// their names in declarative system configs.
func (m Model) MarshalText() ([]byte, error) {
	if m >= NumModels {
		return nil, fmt.Errorf("addrspace: invalid model %d", uint8(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Model) UnmarshalText(b []byte) error {
	parsed, err := ParseModel(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// AllModels returns the four models in paper order (UNI, PAS, DIS, ADSM
// is Table V's column order; this returns declaration order).
func AllModels() []Model {
	return []Model{Unified, Disjoint, PartiallyShared, ADSM}
}

// Region classifies where an object is allocated.
type Region uint8

const (
	// CPUPrivate is the CPU's private space.
	CPUPrivate Region = iota
	// GPUPrivate is the GPU's private space.
	GPUPrivate
	// Shared is the (partially) shared space.
	Shared
	// NumRegions is the number of regions.
	NumRegions
)

var regionNames = [NumRegions]string{"cpu-private", "gpu-private", "shared"}

func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// Virtual layout: each region owns a fixed slice of the address space so
// Region-of-address is a pure function.
const (
	regionBits = 46
	// CPUPrivateBase, GPUPrivateBase and SharedBase are the region bases.
	CPUPrivateBase uint64 = 0
	GPUPrivateBase uint64 = 1 << regionBits
	SharedBase     uint64 = 2 << regionBits
)

// regionEnd is each region's exclusive end address; the shared region's,
// 2^64, wraps to 0.
var regionEnd = [NumRegions]uint64{GPUPrivateBase, SharedBase, 0}

// RegionOf returns the region containing the virtual address addr.
func RegionOf(addr uint64) Region {
	switch addr >> regionBits {
	case 0:
		return CPUPrivate
	case 1:
		return GPUPrivate
	default:
		return Shared
	}
}

// Errors reported by Space operations.
var (
	// ErrRegionUnsupported reports an allocation in a region the model
	// does not provide (e.g. Shared under Disjoint).
	ErrRegionUnsupported = errors.New("addrspace: region not supported by model")
	// ErrInaccessible reports an access by a PU that cannot address the
	// target region under the model.
	ErrInaccessible = errors.New("addrspace: address not accessible by this PU")
	// ErrNoOwnership reports Acquire/Release under a model without
	// ownership control.
	ErrNoOwnership = errors.New("addrspace: model has no ownership control")
	// ErrNotOwner reports a shared-space access by a PU that has not
	// acquired ownership.
	ErrNotOwner = errors.New("addrspace: PU does not own the shared object")
	// ErrNotAllocated reports an operation on an address outside any
	// live allocation.
	ErrNotAllocated = errors.New("addrspace: address not allocated")
)

// Object is one allocation.
type Object struct {
	// Base is the virtual base address.
	Base uint64
	// Size is the allocation size in bytes.
	Size uint64
	// Region is where the object lives.
	Region Region
}

// Contains reports whether addr falls inside the object.
func (o Object) Contains(addr uint64) bool {
	return addr >= o.Base && addr < o.Base+o.Size
}

// Stats counts address-space management events. MapUpdates exposes the
// dual-mapping overhead the paper discusses for partially shared and
// virtually-unified spaces: every shared page must be mapped in both
// PUs' page tables. Frees and FirstTouchFaults are always zero (the
// simulator frees nothing, and the programming model counts first-touch
// faults as Result.PageFaults); they stay so the result layout and the
// addrspace.* counter names are stable.
type Stats struct {
	Allocs           uint64
	Frees            uint64
	MapUpdates       [mem.NumPUs]uint64
	OwnershipChanges uint64
	FirstTouchFaults uint64
}

// Space is an address space instance under one model.
type Space struct {
	model    Model
	pageSize uint64
	next     [NumRegions]uint64
	objects  []Object
	// owner maps a shared object base to the PU currently holding
	// ownership (PartiallyShared only).
	owner map[uint64]mem.PU
	stats Stats
}

// Instrument binds the space's counts into b as registry counters under
// addrspace.*. The owner of b flushes it.
func (s *Space) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "addrspace.allocs", &s.stats.Allocs)
	b.Bind(reg, "addrspace.frees", &s.stats.Frees)
	b.Bind(reg, "addrspace.ownership_changes", &s.stats.OwnershipChanges)
	b.Bind(reg, "addrspace.first_touch_faults", &s.stats.FirstTouchFaults)
	b.Bind(reg, "addrspace.map_updates.cpu", &s.stats.MapUpdates[mem.CPU])
	b.Bind(reg, "addrspace.map_updates.gpu", &s.stats.MapUpdates[mem.GPU])
}

// New returns an empty space under the given model with the given page
// size (must be a power of two; 4096 is the usual choice).
func New(model Model, pageSize uint64) (*Space, error) {
	if model >= NumModels {
		return nil, fmt.Errorf("addrspace: invalid model %d", model)
	}
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("addrspace: page size %d not a power of two", pageSize)
	}
	if pageSize > GPUPrivateBase {
		return nil, fmt.Errorf("addrspace: page size %d larger than a region", pageSize)
	}
	s := &Space{
		model:    model,
		pageSize: pageSize,
		owner:    make(map[uint64]mem.PU),
	}
	s.next[CPUPrivate] = CPUPrivateBase + pageSize // keep page 0 unmapped
	s.next[GPUPrivate] = GPUPrivateBase
	s.next[Shared] = SharedBase
	return s, nil
}

// MustNew is New but panics on configuration error.
func MustNew(model Model, pageSize uint64) *Space {
	s, err := New(model, pageSize)
	if err != nil {
		panic(err)
	}
	return s
}

// Model returns the space's model.
func (s *Space) Model() Model { return s.model }

// PageSize returns the page size.
func (s *Space) PageSize() uint64 { return s.pageSize }

// Stats returns a snapshot of the counters.
func (s *Space) Stats() Stats { return s.stats }

// SupportsRegion reports whether the model provides the region.
func (s *Space) SupportsRegion(r Region) bool {
	switch s.model {
	case Unified:
		// One flat space; region labels are allocation hints only.
		return true
	case Disjoint:
		return r != Shared
	case PartiallyShared:
		return true
	case ADSM:
		// Shared data is allocated in the GPU's memory via adsmAlloc;
		// both private regions also exist.
		return true
	}
	return false
}

// mappedPUs returns which PUs must map pages of region r under the model
// — the page-table maintenance cost of each design option.
func (s *Space) mappedPUs(r Region) []mem.PU {
	switch s.model {
	case Unified:
		// Virtually unified with discrete memories: every PU maps every
		// page (Section II-A1's TLB/page-table complication).
		return []mem.PU{mem.CPU, mem.GPU}
	case Disjoint:
		if r == CPUPrivate {
			return []mem.PU{mem.CPU}
		}
		return []mem.PU{mem.GPU}
	case PartiallyShared:
		switch r {
		case CPUPrivate:
			return []mem.PU{mem.CPU}
		case GPUPrivate:
			return []mem.PU{mem.GPU}
		default:
			// The shared region must be mapped in both page tables.
			return []mem.PU{mem.CPU, mem.GPU}
		}
	case ADSM:
		switch r {
		case CPUPrivate:
			return []mem.PU{mem.CPU}
		case GPUPrivate:
			return []mem.PU{mem.GPU}
		default:
			// ADSM: identical ranges allocated on both PUs, but only the
			// CPU maintains coherent mappings over the whole space.
			return []mem.PU{mem.CPU, mem.GPU}
		}
	}
	return nil
}

// Alloc reserves size bytes in region r and counts one map update per
// page in every PU that must map them under the model. The cost does not
// grow with the object's size.
func (s *Space) Alloc(size uint64, r Region) (Object, error) {
	if r >= NumRegions {
		return Object{}, fmt.Errorf("addrspace: invalid region %d", r)
	}
	if !s.SupportsRegion(r) {
		return Object{}, fmt.Errorf("%w: %v under %v", ErrRegionUnsupported, r, s.model)
	}
	if size == 0 {
		return Object{}, errors.New("addrspace: zero-size allocation")
	}
	base := s.next[r]
	if size > regionEnd[r]-base {
		return Object{}, fmt.Errorf("addrspace: %d bytes overflow the %v region", size, r)
	}
	pages := (size + s.pageSize - 1) / s.pageSize
	s.next[r] += pages * s.pageSize
	o := Object{Base: base, Size: size, Region: r}
	s.objects = append(s.objects, o)
	s.stats.Allocs++
	for _, pu := range s.mappedPUs(r) {
		s.stats.MapUpdates[pu] += pages
	}
	if s.model == PartiallyShared && r == Shared {
		// Shared objects start CPU-owned: the host initialises data.
		s.owner[base] = mem.CPU
	}
	return o, nil
}

// objectAt returns the live object containing addr.
func (s *Space) objectAt(addr uint64) (Object, bool) {
	for _, o := range s.objects {
		if o.Contains(addr) {
			return o, true
		}
	}
	return Object{}, false
}

// Accessible reports whether pu may address the region containing addr
// under the model, ignoring ownership (see CheckAccess for the full
// check).
func (s *Space) Accessible(pu mem.PU, addr uint64) bool {
	r := RegionOf(addr)
	switch s.model {
	case Unified:
		return true
	case Disjoint:
		return (pu == mem.CPU && r == CPUPrivate) || (pu == mem.GPU && r == GPUPrivate)
	case PartiallyShared:
		switch r {
		case CPUPrivate:
			return pu == mem.CPU
		case GPUPrivate:
			return pu == mem.GPU
		default:
			return true
		}
	case ADSM:
		if pu == mem.CPU {
			return true // the CPU addresses the entire space
		}
		return r != CPUPrivate
	}
	return false
}

// CheckAccess validates an access by pu to addr: the address must be
// allocated, the region reachable under the model, and — for the
// partially shared space — owned by pu.
func (s *Space) CheckAccess(pu mem.PU, addr uint64) error {
	o, ok := s.objectAt(addr)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, addr)
	}
	if !s.Accessible(pu, addr) {
		return fmt.Errorf("%w: %v at %#x (%v, %v)", ErrInaccessible, pu, addr, o.Region, s.model)
	}
	if s.model == PartiallyShared && o.Region == Shared {
		if owner, ok := s.owner[o.Base]; ok && owner != pu {
			return fmt.Errorf("%w: %v accessing %#x owned by %v", ErrNotOwner, pu, addr, owner)
		}
	}
	return nil
}

// HasOwnership reports whether the model uses ownership control.
func (s *Space) HasOwnership() bool { return s.model == PartiallyShared }

// Acquire transfers ownership of the shared object o to pu (the LRB
// acquireOwnership action). The previous owner's cached copies must be
// flushed by the caller; the space only tracks the protocol.
func (s *Space) Acquire(pu mem.PU, o Object) error {
	if !s.HasOwnership() {
		return fmt.Errorf("%w: %v", ErrNoOwnership, s.model)
	}
	if o.Region != Shared {
		return fmt.Errorf("addrspace: ownership applies to shared objects, not %v", o.Region)
	}
	if _, ok := s.objectAt(o.Base); !ok {
		return ErrNotAllocated
	}
	if s.owner[o.Base] != pu {
		s.owner[o.Base] = pu
		s.stats.OwnershipChanges++
	}
	return nil
}

// Release relinquishes pu's ownership of o (the LRB releaseOwnership
// action), leaving the object unowned until the next Acquire.
func (s *Space) Release(pu mem.PU, o Object) error {
	if !s.HasOwnership() {
		return fmt.Errorf("%w: %v", ErrNoOwnership, s.model)
	}
	owner, ok := s.owner[o.Base]
	if !ok {
		return nil // already unowned
	}
	if owner != pu {
		return fmt.Errorf("%w: %v releasing object owned by %v", ErrNotOwner, pu, owner)
	}
	delete(s.owner, o.Base)
	s.stats.OwnershipChanges++
	return nil
}

// OwnerOf returns the PU owning the shared object based at base.
func (s *Space) OwnerOf(base uint64) (mem.PU, bool) {
	pu, ok := s.owner[base]
	return pu, ok
}

// LiveObjects returns the number of live allocations.
func (s *Space) LiveObjects() int { return len(s.objects) }
