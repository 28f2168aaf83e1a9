// Package systems describes heterogeneous computing systems as
// declarative, composable design points: an address-space model, a
// hardware communication fabric, a programming-model protocol, and the
// communication cost parameters. The five case studies of the paper's
// Section V-A — CPU+GPU(CUDA), LRB, GMAC, Fusion and IDEAL-HETERO — are
// five named points in that open space; Load/Save serialise points as
// JSON and Grid enumerates whole regions of the space for design-space
// sweeps. The package also holds the Table I survey of previously
// proposed heterogeneous memory systems.
package systems

import (
	"errors"
	"fmt"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/xlat"
)

// System is one heterogeneous system configuration: a declarative
// composition of the design-space axes. All systems share the same CPUs,
// GPUs and cache hierarchy (the paper isolates memory-system effects);
// they differ only in the fields here.
type System struct {
	// Name labels the configuration in reports.
	Name string
	// Model is the memory address space design option.
	Model addrspace.Model
	// Fabric is the hardware communication mechanism.
	Fabric comm.Kind
	// Protocol is the programming-model protocol run over the fabric:
	// explicit-copy (CUDA/Fusion), ownership with or without first-touch
	// faults (LRB), adsm (GMAC), or ideal.
	Protocol model.Kind
	// FaultGranularityBytes sets the page size behind first-touch faults:
	// one lib-pf per granule of freshly shared data. Zero means one fault
	// per shared object — the GPU's large pages cover whole objects, the
	// paper's Section II-A1 page-size option. Small granularities model a
	// GPU stuck with host-sized pages.
	FaultGranularityBytes uint64
	// Params prices the special communication instructions (Table IV).
	Params config.CommParams
	// MemTech selects the terminal memory technology behind the shared
	// L3 (the mem_tech design axis). The zero Spec is the paper's DDR3
	// baseline, so existing system files and their hashes are unchanged.
	MemTech memtech.Spec
	// Translation selects the address-translation front-end (the
	// translation design axis): per-PU TLB geometry and page size, MMU
	// sharing, page-walk cost and the IOMMU mode. The zero Spec is the
	// paper's baseline — translation free — so existing system files and
	// their hashes are unchanged.
	Translation xlat.Spec
}

// ErrIncoherent reports a system configuration whose axes contradict
// each other (e.g. ownership operations over a space without ownership
// control).
var ErrIncoherent = errors.New("incoherent system configuration")

// conflict is an axis contradiction Validate rejects: a value out of
// its axis's range, or a protocol behaviour the address-space model
// cannot express.
type conflict uint8

const (
	noConflict conflict = iota
	invalidModel
	invalidFabric
	invalidProtocol
	faultsWithoutDemandMapping
	ownershipWithoutControl
	granularityWithoutFaults
	adsmWithoutDeviceAddressing
)

// conflict returns the first axis contradiction of s, or noConflict.
// Validate formats its error; Grid.Enumerate, which rejects most of its
// combinations, tests for one without formatting anything.
func (s System) conflict() conflict {
	switch {
	case s.Model >= addrspace.NumModels:
		return invalidModel
	case s.Fabric >= comm.NumKinds:
		return invalidFabric
	case s.Protocol >= model.NumKinds:
		return invalidProtocol
	case s.Protocol.FirstTouchFaults() && s.Model != addrspace.PartiallyShared:
		return faultsWithoutDemandMapping
	case s.Protocol.UsesOwnership() && s.Model != addrspace.PartiallyShared:
		return ownershipWithoutControl
	case s.FaultGranularityBytes != 0 && !s.Protocol.FirstTouchFaults():
		return granularityWithoutFaults
	case s.Protocol == model.ADSMLazy && s.Model != addrspace.ADSM:
		return adsmWithoutDeviceAddressing
	}
	return noConflict
}

// Validate rejects incoherent configurations: protocol behaviours that
// the address-space model cannot express. Every error wraps
// ErrIncoherent and names the system.
func (s System) Validate() error {
	switch s.conflict() {
	case invalidModel:
		return fmt.Errorf("system %q: %w: invalid address-space model %d", s.Name, ErrIncoherent, uint8(s.Model))
	case invalidFabric:
		return fmt.Errorf("system %q: %w: invalid fabric %d", s.Name, ErrIncoherent, uint8(s.Fabric))
	case invalidProtocol:
		return fmt.Errorf("system %q: %w: invalid protocol %d", s.Name, ErrIncoherent, uint8(s.Protocol))
	case faultsWithoutDemandMapping:
		return fmt.Errorf("system %q: %w: first-touch faults need a demand-mapped shared space, which the %v model does not provide",
			s.Name, ErrIncoherent, s.Model)
	case ownershipWithoutControl:
		return fmt.Errorf("system %q: %w: %v ownership operations need ownership control, which only the partially-shared space provides (model is %v)",
			s.Name, ErrIncoherent, s.Protocol, s.Model)
	case granularityWithoutFaults:
		return fmt.Errorf("system %q: %w: fault granularity %d set while the %v protocol takes no first-touch faults",
			s.Name, ErrIncoherent, s.FaultGranularityBytes, s.Protocol)
	case adsmWithoutDeviceAddressing:
		return fmt.Errorf("system %q: %w: the adsm protocol needs the CPU to address device memory, which the %v model does not allow",
			s.Name, ErrIncoherent, s.Model)
	}
	// Malformed mem_tech blocks are parameter errors, not axis
	// contradictions, so they do not wrap ErrIncoherent; the memtech
	// messages carry the JSON path of the offending field.
	if err := s.MemTech.Validate(); err != nil {
		return fmt.Errorf("system %q: %w", s.Name, err)
	}
	// Likewise for malformed translation blocks: parameter errors with
	// JSON paths, not ErrIncoherent contradictions.
	if err := s.Translation.Validate(); err != nil {
		return fmt.Errorf("system %q: %w", s.Name, err)
	}
	return nil
}

// CPUGPU returns the CPU+GPU(CUDA) configuration: disjoint memory spaces
// connected with PCI-E; every data exchange is an explicit api-pci copy,
// including transferring results back to the host.
func CPUGPU() System {
	return System{
		Name:     "CPU+GPU",
		Model:    addrspace.Disjoint,
		Fabric:   comm.PCIe,
		Protocol: model.ExplicitCopy,
		Params:   config.TableIV(),
	}
}

// LRB returns the LRB configuration: partially shared address space over
// the PCI aperture, with ownership acquire/release, api-tr transfers into
// the shared space, first-touch page faults, and no copy-back (results
// stay in the shared space).
func LRB() System {
	return System{
		Name:     "LRB",
		Model:    addrspace.PartiallyShared,
		Fabric:   comm.Aperture,
		Protocol: model.OwnershipFirstTouch,
		Params:   config.TableIV(),
	}
}

// GMAC returns the GMAC configuration: ADSM over PCI-E with asynchronous
// copies the runtime overlaps with computation, and no copy-back (the
// CPU addresses the shared space directly).
func GMAC() System {
	return System{
		Name:     "GMAC",
		Model:    addrspace.ADSM,
		Fabric:   comm.PCIeAsync,
		Protocol: model.ADSMLazy,
		Params:   config.TableIV(),
	}
}

// Fusion returns the Fusion configuration: disjoint memory spaces whose
// transfers run through the shared memory controllers as ordinary memory
// accesses.
func Fusion() System {
	return System{
		Name:     "Fusion",
		Model:    addrspace.Disjoint,
		Fabric:   comm.MemCtrl,
		Protocol: model.ExplicitCopy,
		Params:   config.TableIV(),
	}
}

// IdealHetero returns IDEAL-HETERO: a unified, fully coherent system with
// free communication.
func IdealHetero() System {
	return System{
		Name:     "IDEAL-HETERO",
		Model:    addrspace.Unified,
		Fabric:   comm.Ideal,
		Protocol: model.Ideal,
		Params:   config.Ideal(),
	}
}

// CaseStudies returns the five systems of Figure 5 in the paper's order.
func CaseStudies() []System {
	return []System{CPUGPU(), LRB(), GMAC(), Fusion(), IdealHetero()}
}

// CaseStudiesWithTech returns the five case studies re-terminated on the
// given memory technology (default parameters), for re-running the
// Figure 5 comparison across the mem_tech axis. Names are unchanged so
// per-sweep reports normalise against the same baseline labels.
func CaseStudiesWithTech(k memtech.Kind) []System {
	out := CaseStudies()
	if k == memtech.DRAM {
		return out
	}
	for i := range out {
		out[i].MemTech = memtech.Spec{Kind: k}
	}
	return out
}

// CaseStudiesWithTranslation returns the five case studies with the
// given translation front-end, for re-running the Figure 5 comparison
// across the translation axis. Names are unchanged so per-sweep reports
// normalise against the same baseline labels; a zero spec returns the
// untouched baseline.
func CaseStudiesWithTranslation(spec xlat.Spec) []System {
	out := CaseStudies()
	if spec.IsZero() {
		return out
	}
	for i := range out {
		out[i].Translation = spec
	}
	return out
}

// GraceHopper returns a Grace-Hopper-style preset: a unified address
// space with hardware-coherent communication through the shared memory
// controllers — no copies, no faults — terminated on an HBM-class
// stack. It is the 2020s design point the 2012 paper's IDEAL-HETERO
// anticipated, except that communication rides real shared memory
// controllers rather than a free fabric, and the memory behind them is
// HBM rather than DDR3.
func GraceHopper() System {
	return System{
		Name:     "grace-hopper",
		Model:    addrspace.Unified,
		Fabric:   comm.MemCtrl,
		Protocol: model.Ideal,
		Params:   config.Ideal(),
		MemTech:  memtech.Spec{Kind: memtech.HBM},
	}
}

// AddressSpaces returns the four Figure 7 systems, one per address-space
// model (ForModel), in the order of addrspace.AllModels.
func AddressSpaces() []System {
	var out []System
	for _, m := range addrspace.AllModels() {
		out = append(out, ForModel(m))
	}
	return out
}

// ForModel returns a system exercising the given address-space model with
// ideal communication and a shared cache — the Figure 7 configuration
// that isolates pure address-space effects.
func ForModel(m addrspace.Model) System {
	s := System{
		Name:   fmt.Sprintf("ideal-%s", m),
		Model:  m,
		Fabric: comm.Ideal,
		Params: config.Ideal(),
	}
	switch m {
	case addrspace.PartiallyShared:
		// The model's semantics keep ownership operations (they are part
		// of the programming model, not the hardware), but under ideal
		// parameters they cost nothing. First-touch faults are a page-size
		// choice, not a PAS obligation, so the isolated model goes without.
		s.Protocol = model.Ownership
	case addrspace.ADSM:
		s.Protocol = model.ADSMLazy
	case addrspace.Unified:
		s.Protocol = model.Ideal
	default:
		s.Protocol = model.ExplicitCopy
	}
	return s
}
