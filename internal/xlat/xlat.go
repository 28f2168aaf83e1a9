// Package xlat names and parameterises the address-translation
// front-end — the translation design axis. The paper's evaluation (like
// most 2012-era DSE work) treats virtual-to-physical translation as
// free; Kim et al.'s "Address Translation Design Tradeoffs for
// Heterogeneous Systems" shows translation, not transfer, can dominate
// exactly the shared-address-space designs the paper favours. This
// package opens that assumption: per-PU TLB geometry (entries, ways,
// page size — Section II-A1's per-PU page-size option), a multi-level
// page-walk cost model with an optional walk cache, shared-vs-private
// MMU walkers, and an IOMMU-style walk path for devices behind an I/O
// interconnect.
//
// The package is purely declarative plus the reusable TLB substrate
// (tlb.go): a Spec selects the MMU arrangement and optional parameter
// overrides, serialises inside systems JSON files under the
// "translation" key (or as a preset string — "4k", "2m-shared"), and
// validates with JSON-path error messages ("translation.gpu.page_bytes:
// not a power of two"). internal/memsys implements the timed
// TranslationStage; internal/mem places it at the front of the access
// path when a hierarchy's Config.Xlat selects it.
package xlat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
)

// MMUKind selects the MMU arrangement behind the per-PU TLBs.
type MMUKind uint8

const (
	// Off disables translation entirely — the paper's baseline, where
	// every access is physically addressed for free. The zero value, so
	// the default everywhere a Spec is omitted.
	Off MMUKind = iota
	// Private gives each PU its own page walker: walks never contend
	// across PUs, but each PU pays for its own MMU.
	Private
	// Shared runs both PUs' page walks through one walker — the
	// single-MMU design of tightly integrated APUs, where concurrent
	// CPU and GPU walks serialise.
	Shared
	// NumMMUKinds is the number of MMU arrangements.
	NumMMUKinds
)

var mmuNames = [NumMMUKinds]string{"off", "private", "shared"}

func (k MMUKind) String() string {
	if int(k) < len(mmuNames) {
		return mmuNames[k]
	}
	return fmt.Sprintf("mmu(%d)", uint8(k))
}

// ParseMMU returns the MMU kind named s (as produced by String).
func ParseMMU(s string) (MMUKind, error) {
	for k, name := range mmuNames {
		if s == name {
			return MMUKind(k), nil
		}
	}
	return 0, fmt.Errorf("xlat: unknown mmu arrangement %q", s)
}

// MarshalText implements encoding.TextMarshaler so MMU kinds serialise
// as their names in declarative configs.
func (k MMUKind) MarshalText() ([]byte, error) {
	if k >= NumMMUKinds {
		return nil, fmt.Errorf("xlat: invalid mmu kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *MMUKind) UnmarshalText(b []byte) error {
	parsed, err := ParseMMU(string(b))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// IOMMUMode selects whether the GPU's page walks go through an
// IOMMU-style path (a longer walk over the I/O interconnect, no walk
// cache) instead of a core MMU walk.
type IOMMUMode uint8

const (
	// IOMMUAuto derives the mode from the system's fabric: devices
	// behind PCIe or the PCI aperture walk through the IOMMU, devices
	// on the memory controllers or an ideal fabric do not. The zero
	// value, so an omitted field keeps the fabric-derived behaviour.
	IOMMUAuto IOMMUMode = iota
	// IOMMUOn forces the IOMMU walk path for GPU misses.
	IOMMUOn
	// IOMMUOff forces core-MMU walks regardless of fabric.
	IOMMUOff
	// NumIOMMUModes is the number of IOMMU modes.
	NumIOMMUModes
)

var iommuNames = [NumIOMMUModes]string{"auto", "on", "off"}

func (m IOMMUMode) String() string {
	if int(m) < len(iommuNames) {
		return iommuNames[m]
	}
	return fmt.Sprintf("iommu(%d)", uint8(m))
}

// MarshalText implements encoding.TextMarshaler.
func (m IOMMUMode) MarshalText() ([]byte, error) {
	if m >= NumIOMMUModes {
		return nil, fmt.Errorf("xlat: invalid iommu mode %d", uint8(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *IOMMUMode) UnmarshalText(b []byte) error {
	for k, name := range iommuNames {
		if string(b) == name {
			*m = IOMMUMode(k)
			return nil
		}
	}
	return fmt.Errorf("xlat: unknown iommu mode %q", b)
}

// Spec selects the translation front-end and optional parameter
// overrides. The zero Spec is translation off (the paper's baseline),
// and a zero Spec is what an omitted "translation" JSON field decodes
// to, so existing system files (and their hashes) are untouched by this
// axis. Nil parameter blocks mean "use the defaults"; zero fields
// inside a block likewise fall back field by field (see Resolved*).
type Spec struct {
	// MMU selects the walker arrangement; Off disables the axis.
	MMU MMUKind `json:"mmu"`
	// CPU and GPU size the per-PU TLBs; each PU picks its own page
	// size (Section II-A1).
	CPU *TLBParams `json:"cpu,omitempty"`
	GPU *TLBParams `json:"gpu,omitempty"`
	// Walk prices the page walk behind a TLB miss.
	Walk *WalkParams `json:"walk,omitempty"`
	// IOMMU selects the GPU's walk path; the zero value (auto) derives
	// it from the system's fabric.
	IOMMU IOMMUMode `json:"iommu,omitempty"`
}

// IsZero reports whether the spec is the translation-off baseline — the
// form the systems codec omits from JSON entirely.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects malformed specs. Error messages carry the JSON path
// of the offending field ("translation.gpu.page_bytes") so CLI users
// can fix the file they wrote.
func (s Spec) Validate() error {
	if s.MMU >= NumMMUKinds {
		return fmt.Errorf("translation.mmu: invalid mmu arrangement %d", uint8(s.MMU))
	}
	if s.IOMMU >= NumIOMMUModes {
		return fmt.Errorf("translation.iommu: invalid iommu mode %d", uint8(s.IOMMU))
	}
	if s.MMU == Off {
		switch {
		case s.CPU != nil:
			return fmt.Errorf("translation.cpu: parameters set but mmu is %q", Off)
		case s.GPU != nil:
			return fmt.Errorf("translation.gpu: parameters set but mmu is %q", Off)
		case s.Walk != nil:
			return fmt.Errorf("translation.walk: parameters set but mmu is %q", Off)
		case s.IOMMU != IOMMUAuto:
			return fmt.Errorf("translation.iommu: mode set but mmu is %q", Off)
		}
		return nil
	}
	if s.CPU != nil {
		if err := s.CPU.validate("translation.cpu"); err != nil {
			return err
		}
	}
	if s.GPU != nil {
		if err := s.GPU.validate("translation.gpu"); err != nil {
			return err
		}
	}
	if s.Walk != nil {
		if err := s.Walk.validate(); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON emits the canonical object form (presets are an input
// convenience only), keeping the systems Save encoding stable.
func (s Spec) MarshalJSON() ([]byte, error) {
	type specJSON Spec // drop methods to avoid recursion
	return json.Marshal(specJSON(s))
}

// UnmarshalJSON accepts either a preset string ("4k", "2m-shared", …)
// or the full object form. Unknown fields inside the object are
// rejected here explicitly: a custom unmarshaler does not inherit the
// outer decoder's DisallowUnknownFields setting, and typos in
// hand-written files must still fail loudly.
func (s *Spec) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) > 0 && b[0] == '"' {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		preset, err := ParsePreset(name)
		if err != nil {
			return err
		}
		*s = preset
		return nil
	}
	type specJSON Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var j specJSON
	if err := dec.Decode(&j); err != nil {
		return err
	}
	*s = Spec(j)
	return nil
}

// ParsePreset resolves a named translation configuration:
//
//	off        translation disabled (the baseline)
//	4k         private per-PU MMUs, 4 KB pages on both PUs
//	2m         private MMUs, 4 KB CPU pages, 2 MB GPU pages
//	4k-shared  one shared walker, 4 KB pages on both PUs
//	2m-shared  one shared walker, 4 KB CPU / 2 MB GPU pages
func ParsePreset(name string) (Spec, error) {
	switch name {
	case "", "off":
		return Spec{}, nil
	case "4k":
		return Spec{MMU: Private}, nil
	case "2m":
		return Spec{MMU: Private, GPU: &TLBParams{PageBytes: 2 << 20}}, nil
	case "4k-shared":
		return Spec{MMU: Shared}, nil
	case "2m-shared":
		return Spec{MMU: Shared, GPU: &TLBParams{PageBytes: 2 << 20}}, nil
	}
	return Spec{}, fmt.Errorf("xlat: unknown translation preset %q (off, 4k, 2m, 4k-shared, 2m-shared)", name)
}

// MustParsePreset is ParsePreset but panics on an unknown name.
func MustParsePreset(name string) Spec {
	s, err := ParsePreset(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Presets returns the preset names in documentation order.
func Presets() []string {
	return []string{"off", "4k", "2m", "4k-shared", "2m-shared"}
}

// Label returns a short coordinate tag for reports and grid point
// names: "off" for the zero spec, otherwise e.g. "xlat-priv-2m" (the
// page size shown is the GPU's — the axis the study varies; a
// non-default CPU page adds a "-c<size>" segment).
func (s Spec) Label() string {
	if s.IsZero() {
		return "off"
	}
	mmu := "priv"
	if s.MMU == Shared {
		mmu = "shared"
	}
	label := "xlat-" + mmu + "-" + pageName(s.ResolvedGPU().PageBytes)
	if cp := s.ResolvedCPU().PageBytes; cp != DefaultTLB().PageBytes {
		label += "-c" + pageName(cp)
	}
	if s.IOMMU == IOMMUOn {
		label += "-iommu"
	}
	return label
}

func pageName(b uint64) string {
	if b >= 1<<20 {
		return strconv.FormatUint(b>>20, 10) + "m"
	}
	return strconv.FormatUint(b>>10, 10) + "k"
}

// WithIOMMUResolved returns the spec with the auto IOMMU mode replaced
// by the fabric-derived answer (on for devices behind an I/O
// interconnect). Explicit on/off settings are kept.
func (s Spec) WithIOMMUResolved(remoteDevice bool) Spec {
	if s.IOMMU != IOMMUAuto {
		return s
	}
	if remoteDevice {
		s.IOMMU = IOMMUOn
	} else {
		s.IOMMU = IOMMUOff
	}
	return s
}

// TLBParams sizes one PU's TLB. Zero fields take the DefaultTLB value.
type TLBParams struct {
	// Entries is the total entry count (a power of two).
	Entries int `json:"entries,omitempty"`
	// Ways is the associativity; it must divide Entries.
	Ways int `json:"ways,omitempty"`
	// PageBytes is the PU's page size (a power of two) — reach is
	// Entries × PageBytes, the Section II-A1 trade-off.
	PageBytes uint64 `json:"page_bytes,omitempty"`
}

// DefaultTLB returns the baseline TLB: 64 entries, 4-way, 4 KB pages —
// a 256 KB reach, the host-page design both PUs start from.
func DefaultTLB() TLBParams {
	return TLBParams{Entries: 64, Ways: 4, PageBytes: 4096}
}

// maxEntries bounds the TLB and walk-cache sizes a translation block
// may ask for: their arrays are allocated when the simulator is built,
// so an absurd size in a system file must fail validation, not exhaust
// memory.
const maxEntries = 1 << 16

func (p *TLBParams) validate(path string) error {
	switch {
	case p.Entries < 0 || (p.Entries != 0 && bits.OnesCount(uint(p.Entries)) != 1):
		return fmt.Errorf("%s.entries: %d not a positive power of two", path, p.Entries)
	case p.Entries > maxEntries:
		return fmt.Errorf("%s.entries: must be at most %d, got %d", path, maxEntries, p.Entries)
	case p.Ways < 0:
		return fmt.Errorf("%s.ways: must be positive, got %d", path, p.Ways)
	case p.PageBytes != 0 && (p.PageBytes < 512 || p.PageBytes&(p.PageBytes-1) != 0):
		return fmt.Errorf("%s.page_bytes: %d not a power of two >= 512", path, p.PageBytes)
	}
	m := p.merged()
	if m.Entries%m.Ways != 0 {
		return fmt.Errorf("%s.ways: %d does not divide entries %d", path, m.Ways, m.Entries)
	}
	return nil
}

// merged returns p with zero fields replaced by the defaults.
func (p TLBParams) merged() TLBParams {
	d := DefaultTLB()
	if p.Entries == 0 {
		p.Entries = d.Entries
	}
	if p.Ways == 0 {
		p.Ways = d.Ways
	}
	if p.PageBytes == 0 {
		p.PageBytes = d.PageBytes
	}
	return p
}

// WalkParams prices the page walk behind a TLB miss. Durations are
// picoseconds; zero fields take the DefaultWalk value.
type WalkParams struct {
	// Levels is the page-table depth; a full walk pays Levels serial
	// LevelPS accesses.
	Levels int `json:"levels,omitempty"`
	// LevelPS is one page-table level's access latency (the table lines
	// typically hit the cache hierarchy, so this is well under a DRAM
	// access).
	LevelPS uint64 `json:"level_ps,omitempty"`
	// CacheEntries sizes the walk cache, which holds upper-level table
	// entries so a hit walks only the last level. -1 disables it; zero
	// takes the default.
	CacheEntries int `json:"cache_entries,omitempty"`
	// IOMMUExtraPS is the additional fixed latency of an IOMMU walk:
	// the request crosses the I/O interconnect to the IOMMU and the
	// device-table walk runs without the core walk caches.
	IOMMUExtraPS uint64 `json:"iommu_extra_ps,omitempty"`
}

// DefaultWalk returns a four-level walk at 20 ns per level (table
// entries mostly hit the cache hierarchy), a 16-entry walk cache, and
// 200 ns of extra IOMMU latency — the Kim et al. ballpark.
func DefaultWalk() WalkParams {
	return WalkParams{
		Levels:       4,
		LevelPS:      20_000,
		CacheEntries: 16,
		IOMMUExtraPS: 200_000,
	}
}

func (p *WalkParams) validate() error {
	switch {
	case p.Levels < 0 || p.Levels > 8:
		return fmt.Errorf("translation.walk.levels: must be 1-8, got %d", p.Levels)
	case p.CacheEntries < -1:
		return fmt.Errorf("translation.walk.cache_entries: must be positive, zero (default) or -1 (off), got %d", p.CacheEntries)
	case p.CacheEntries > 0 && bits.OnesCount(uint(p.CacheEntries)) != 1:
		return fmt.Errorf("translation.walk.cache_entries: %d not a power of two", p.CacheEntries)
	case p.CacheEntries > maxEntries:
		return fmt.Errorf("translation.walk.cache_entries: must be at most %d, got %d", maxEntries, p.CacheEntries)
	}
	return nil
}

// merged returns p with zero fields replaced by the defaults; a -1
// CacheEntries (walk cache off) resolves to 0.
func (p WalkParams) merged() WalkParams {
	d := DefaultWalk()
	if p.Levels == 0 {
		p.Levels = d.Levels
	}
	if p.LevelPS == 0 {
		p.LevelPS = d.LevelPS
	}
	switch {
	case p.CacheEntries == 0:
		p.CacheEntries = d.CacheEntries
	case p.CacheEntries < 0:
		p.CacheEntries = 0
	}
	if p.IOMMUExtraPS == 0 {
		p.IOMMUExtraPS = d.IOMMUExtraPS
	}
	return p
}

// ResolvedCPU returns the spec's CPU TLB parameters with defaults
// applied.
func (s Spec) ResolvedCPU() TLBParams {
	if s.CPU != nil {
		return s.CPU.merged()
	}
	return DefaultTLB()
}

// ResolvedGPU returns the spec's GPU TLB parameters with defaults
// applied.
func (s Spec) ResolvedGPU() TLBParams {
	if s.GPU != nil {
		return s.GPU.merged()
	}
	return DefaultTLB()
}

// ResolvedWalk returns the spec's walk parameters with defaults
// applied (CacheEntries 0 means the walk cache is off).
func (s Spec) ResolvedWalk() WalkParams {
	if s.Walk != nil {
		return s.Walk.merged()
	}
	return DefaultWalk()
}
