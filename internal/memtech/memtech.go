// Package memtech names and parameterises the memory technologies the
// simulator can put behind the shared L3 — the mem_tech design axis.
// The paper's evaluation assumes one DDR3-era DRAM backend; this package
// opens that assumption so design points can also terminate in an
// HBM-class stack (many narrow channels, higher access latency), an NVM
// tier (asymmetric read/write latency with a serial write-queue drain),
// or a set-associative DRAM cache fronting slow far memory.
//
// The package is purely declarative: a Spec selects a Kind and optional
// parameter overrides, serialises inside systems JSON files under the
// "mem_tech" key, and validates with JSON-path error messages so a bad
// parameter is diagnosable from the CLI ("mem_tech.nvm.read_ps: must be
// positive"). internal/memsys implements the corresponding backends;
// internal/mem constructs the one a hierarchy's Config.Tech selects.
package memtech

import (
	"fmt"

	"heteromem/internal/clock"
	"heteromem/internal/dram"
)

// Kind names a terminal memory technology.
type Kind uint8

const (
	// DRAM is the paper's baseline: DDR3-1333 behind FR-FCFS
	// controllers (dram.DDR3_1333). The zero value, so the default
	// everywhere a Spec is omitted.
	DRAM Kind = iota
	// HBM is a high-bandwidth stacked DRAM: many pseudo-channels with
	// small rows and a fast data bus, paying extra access latency for
	// the stacked path.
	HBM
	// NVM is a byte-addressable non-volatile tier: reads are slow,
	// writes much slower and absorbed by a bounded write queue that
	// drains serially (per Horro et al.).
	NVM
	// DRAMCache is a set-associative DRAM cache in front of slow far
	// memory (per Babaie et al.): near-DRAM latency on a hit, a far
	// read plus a near fill on a miss.
	DRAMCache
	// NumKinds is the number of memory technologies.
	NumKinds
)

var kindNames = [NumKinds]string{"dram", "hbm", "nvm", "dram-cache"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("memtech(%d)", uint8(k))
}

// Parse returns the kind named s (as produced by String).
func Parse(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("memtech: unknown memory technology %q", s)
}

// MarshalText implements encoding.TextMarshaler so kinds serialise as
// their names in declarative configs.
func (k Kind) MarshalText() ([]byte, error) {
	if k >= NumKinds {
		return nil, fmt.Errorf("memtech: invalid kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// AllKinds returns the kinds in declaration order.
func AllKinds() []Kind { return []Kind{DRAM, HBM, NVM, DRAMCache} }

// Spec selects a memory technology and optional parameter overrides.
// The zero Spec is the baseline DRAM backend, and a zero Spec is what
// an omitted "mem_tech" JSON field decodes to, so existing system files
// (and their hashes) are untouched by this axis. Nil parameter blocks
// mean "use the kind's defaults"; zero fields inside a block likewise
// fall back field by field (see Resolved*).
type Spec struct {
	Kind Kind `json:"kind"`
	// HBM, NVM and DRAMCache carry the per-kind parameters; only the
	// block matching Kind may be set.
	HBM       *HBMParams       `json:"hbm,omitempty"`
	NVM       *NVMParams       `json:"nvm,omitempty"`
	DRAMCache *DRAMCacheParams `json:"dram_cache,omitempty"`
}

// IsZero reports whether the spec is the all-default DRAM selection —
// the form the systems codec omits from JSON entirely.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects malformed specs. Error messages carry the JSON path
// of the offending field ("mem_tech.nvm.read_ps") so CLI users can fix
// the file they wrote.
func (s Spec) Validate() error {
	if s.Kind >= NumKinds {
		return fmt.Errorf("mem_tech.kind: invalid memory technology %d", uint8(s.Kind))
	}
	if s.HBM != nil && s.Kind != HBM {
		return fmt.Errorf("mem_tech.hbm: parameters set but kind is %q", s.Kind)
	}
	if s.NVM != nil && s.Kind != NVM {
		return fmt.Errorf("mem_tech.nvm: parameters set but kind is %q", s.Kind)
	}
	if s.DRAMCache != nil && s.Kind != DRAMCache {
		return fmt.Errorf("mem_tech.dram_cache: parameters set but kind is %q", s.Kind)
	}
	if s.HBM != nil {
		if err := s.HBM.validate(); err != nil {
			return err
		}
	}
	if s.NVM != nil {
		if err := s.NVM.validate(); err != nil {
			return err
		}
	}
	if s.DRAMCache != nil {
		if err := s.DRAMCache.validate(); err != nil {
			return err
		}
	}
	return nil
}

// HBMParams parameterises the HBM backend. Durations are picoseconds;
// zero fields take the DefaultHBM value.
type HBMParams struct {
	// Channels is the number of independent pseudo-channels.
	Channels int `json:"channels,omitempty"`
	// BanksPerChannel is the banks each pseudo-channel schedules over.
	BanksPerChannel int `json:"banks_per_channel,omitempty"`
	// RowBytes is the row-buffer size per bank (HBM rows are small).
	RowBytes int `json:"row_bytes,omitempty"`
	// TCASPS / TRCDPS / TRPPS are the column, activate and precharge
	// latencies; TBurstPS is one line's data-bus occupancy; TCCDPS the
	// column-to-column spacing.
	TCASPS   uint64 `json:"tcas_ps,omitempty"`
	TRCDPS   uint64 `json:"trcd_ps,omitempty"`
	TRPPS    uint64 `json:"trp_ps,omitempty"`
	TBurstPS uint64 `json:"tburst_ps,omitempty"`
	TCCDPS   uint64 `json:"tccd_ps,omitempty"`
	// ExtraLatPS is the additional fixed access latency of the stacked
	// path (TSVs, interposer, wider prefetch) every request pays.
	ExtraLatPS uint64 `json:"extra_lat_ps,omitempty"`
}

// DefaultHBM returns an HBM2-class stack: 16 pseudo-channels with 8
// banks each and 2 KB rows; 25.6 GB/s per pseudo-channel (64 B burst in
// 2.5 ns), 409.6 GB/s aggregate — roughly 10x the DDR3 baseline — at
// ~15 ns extra access latency.
func DefaultHBM() HBMParams {
	return HBMParams{
		Channels:        16,
		BanksPerChannel: 8,
		RowBytes:        2048,
		TCASPS:          15_000,
		TRCDPS:          15_000,
		TRPPS:           15_000,
		TBurstPS:        2_500,
		TCCDPS:          2_000,
		ExtraLatPS:      15_000,
	}
}

// maxUnits bounds every channel and bank count a mem_tech block may
// ask for: each is allocated when the backend is built, so an absurd
// count in a system file must fail validation, not exhaust memory.
const maxUnits = 1024

func (p *HBMParams) validate() error {
	switch {
	case p.Channels < 0:
		return fmt.Errorf("mem_tech.hbm.channels: must be positive, got %d", p.Channels)
	case p.Channels > maxUnits:
		return fmt.Errorf("mem_tech.hbm.channels: must be at most %d, got %d", maxUnits, p.Channels)
	case p.BanksPerChannel < 0:
		return fmt.Errorf("mem_tech.hbm.banks_per_channel: must be positive, got %d", p.BanksPerChannel)
	case p.BanksPerChannel > maxUnits:
		return fmt.Errorf("mem_tech.hbm.banks_per_channel: must be at most %d, got %d", maxUnits, p.BanksPerChannel)
	case p.RowBytes < 0:
		return fmt.Errorf("mem_tech.hbm.row_bytes: must be positive, got %d", p.RowBytes)
	case p.RowBytes != 0 && p.RowBytes < 64:
		return fmt.Errorf("mem_tech.hbm.row_bytes: must hold at least one 64-byte line, got %d", p.RowBytes)
	}
	return nil
}

// merged returns p with zero fields replaced by the defaults.
func (p HBMParams) merged() HBMParams {
	d := DefaultHBM()
	if p.Channels == 0 {
		p.Channels = d.Channels
	}
	if p.BanksPerChannel == 0 {
		p.BanksPerChannel = d.BanksPerChannel
	}
	if p.RowBytes == 0 {
		p.RowBytes = d.RowBytes
	}
	if p.TCASPS == 0 {
		p.TCASPS = d.TCASPS
	}
	if p.TRCDPS == 0 {
		p.TRCDPS = d.TRCDPS
	}
	if p.TRPPS == 0 {
		p.TRPPS = d.TRPPS
	}
	if p.TBurstPS == 0 {
		p.TBurstPS = d.TBurstPS
	}
	if p.TCCDPS == 0 {
		p.TCCDPS = d.TCCDPS
	}
	if p.ExtraLatPS == 0 {
		p.ExtraLatPS = d.ExtraLatPS
	}
	return p
}

// DRAMConfig converts the (resolved) parameters into a dram.Config so
// the HBM backend reuses the banked FR-FCFS controller model with HBM
// geometry. PartitionRegionBit stays off: HBM interleaves everything.
func (p HBMParams) DRAMConfig(lineBytes int) dram.Config {
	m := p.merged()
	return dram.Config{
		Channels:        m.Channels,
		BanksPerChannel: m.BanksPerChannel,
		LineBytes:       lineBytes,
		RowBytes:        m.RowBytes,
		TCAS:            clock.Duration(m.TCASPS),
		TRCD:            clock.Duration(m.TRCDPS),
		TRP:             clock.Duration(m.TRPPS),
		TBurst:          clock.Duration(m.TBurstPS),
		TCCD:            clock.Duration(m.TCCDPS),
		Scheduling:      dram.FRFCFS,
	}
}

// ExtraLat returns the resolved fixed access latency.
func (p HBMParams) ExtraLat() clock.Duration {
	return clock.Duration(p.merged().ExtraLatPS)
}

// NVMParams parameterises the NVM backend. Durations are picoseconds;
// zero fields take the DefaultNVM value.
type NVMParams struct {
	// Channels is the number of independent device channels; lines
	// interleave across them and each serialises its own transfers.
	Channels int `json:"channels,omitempty"`
	// ReadPS is the device read latency.
	ReadPS uint64 `json:"read_ps,omitempty"`
	// WritePS is the device write (drain) latency — NVM writes are
	// several times slower than reads.
	WritePS uint64 `json:"write_ps,omitempty"`
	// BusPS is one line's channel occupancy.
	BusPS uint64 `json:"bus_ps,omitempty"`
	// WriteQueueDepth bounds the buffered writes; a full queue stalls
	// new traffic until a slot drains.
	WriteQueueDepth int `json:"write_queue_depth,omitempty"`
}

// DefaultNVM returns an Optane-DIMM-class tier: 250 ns reads, 1 µs
// write drain, 4 channels at 6.4 GB/s each, a 16-entry write queue.
func DefaultNVM() NVMParams {
	return NVMParams{
		Channels:        4,
		ReadPS:          250_000,
		WritePS:         1_000_000,
		BusPS:           10_000,
		WriteQueueDepth: 16,
	}
}

func (p *NVMParams) validate() error {
	switch {
	case p.Channels < 0:
		return fmt.Errorf("mem_tech.nvm.channels: must be positive, got %d", p.Channels)
	case p.Channels > maxUnits:
		return fmt.Errorf("mem_tech.nvm.channels: must be at most %d, got %d", maxUnits, p.Channels)
	case p.WriteQueueDepth < 0:
		return fmt.Errorf("mem_tech.nvm.write_queue_depth: must be positive, got %d", p.WriteQueueDepth)
	}
	return nil
}

// Merged returns p with zero fields replaced by the defaults.
func (p NVMParams) Merged() NVMParams {
	d := DefaultNVM()
	if p.Channels == 0 {
		p.Channels = d.Channels
	}
	if p.ReadPS == 0 {
		p.ReadPS = d.ReadPS
	}
	if p.WritePS == 0 {
		p.WritePS = d.WritePS
	}
	if p.BusPS == 0 {
		p.BusPS = d.BusPS
	}
	if p.WriteQueueDepth == 0 {
		p.WriteQueueDepth = d.WriteQueueDepth
	}
	return p
}

// DRAMCacheParams parameterises the DRAM-cache backend. Durations are
// picoseconds; zero fields take the DefaultDRAMCache value.
type DRAMCacheParams struct {
	// SizeBytes is the DRAM cache capacity; Ways its associativity.
	// The line size follows the hierarchy's L3 line.
	SizeBytes uint64 `json:"size_bytes,omitempty"`
	Ways      int    `json:"ways,omitempty"`
	// NearPS is one near-DRAM access (tags and data co-located);
	// NearBusPS one line's near-channel occupancy over NearChannels.
	NearPS       uint64 `json:"near_ps,omitempty"`
	NearBusPS    uint64 `json:"near_bus_ps,omitempty"`
	NearChannels int    `json:"near_channels,omitempty"`
	// FarReadPS / FarWritePS are the far-memory latencies behind a
	// miss; FarBusPS one line's far-channel occupancy over FarChannels.
	FarReadPS   uint64 `json:"far_read_ps,omitempty"`
	FarWritePS  uint64 `json:"far_write_ps,omitempty"`
	FarBusPS    uint64 `json:"far_bus_ps,omitempty"`
	FarChannels int    `json:"far_channels,omitempty"`
}

// DefaultDRAMCache returns a 64 MB 16-way cache of 30 ns near accesses
// over 8 channels, fronting a far tier with 250 ns reads and 500 ns
// writes over 2 channels — the Babaie-style near/far split.
func DefaultDRAMCache() DRAMCacheParams {
	return DRAMCacheParams{
		SizeBytes:    64 << 20,
		Ways:         16,
		NearPS:       30_000,
		NearBusPS:    3_000,
		NearChannels: 8,
		FarReadPS:    250_000,
		FarWritePS:   500_000,
		FarBusPS:     10_000,
		FarChannels:  2,
	}
}

// maxDRAMCacheBytes bounds mem_tech.dram_cache.size_bytes. The
// directory's metadata is materialized as lines arrive, but its table of
// 1024-set chunks is sized up front: 64 GiB of 64-byte lines at one way
// is a million chunks, an 8 MB table.
const maxDRAMCacheBytes = 64 << 30

func (p *DRAMCacheParams) validate() error {
	switch {
	case p.Ways < 0:
		return fmt.Errorf("mem_tech.dram_cache.ways: must be positive, got %d", p.Ways)
	case p.NearChannels < 0:
		return fmt.Errorf("mem_tech.dram_cache.near_channels: must be positive, got %d", p.NearChannels)
	case p.NearChannels > maxUnits:
		return fmt.Errorf("mem_tech.dram_cache.near_channels: must be at most %d, got %d", maxUnits, p.NearChannels)
	case p.FarChannels < 0:
		return fmt.Errorf("mem_tech.dram_cache.far_channels: must be positive, got %d", p.FarChannels)
	case p.FarChannels > maxUnits:
		return fmt.Errorf("mem_tech.dram_cache.far_channels: must be at most %d, got %d", maxUnits, p.FarChannels)
	case p.SizeBytes != 0 && p.SizeBytes < 4096:
		return fmt.Errorf("mem_tech.dram_cache.size_bytes: must be at least 4096, got %d", p.SizeBytes)
	case p.SizeBytes > maxDRAMCacheBytes:
		return fmt.Errorf("mem_tech.dram_cache.size_bytes: must be at most %d (64 GiB), got %d", uint64(maxDRAMCacheBytes), p.SizeBytes)
	}
	return nil
}

// Merged returns p with zero fields replaced by the defaults.
func (p DRAMCacheParams) Merged() DRAMCacheParams {
	d := DefaultDRAMCache()
	if p.SizeBytes == 0 {
		p.SizeBytes = d.SizeBytes
	}
	if p.Ways == 0 {
		p.Ways = d.Ways
	}
	if p.NearPS == 0 {
		p.NearPS = d.NearPS
	}
	if p.NearBusPS == 0 {
		p.NearBusPS = d.NearBusPS
	}
	if p.NearChannels == 0 {
		p.NearChannels = d.NearChannels
	}
	if p.FarReadPS == 0 {
		p.FarReadPS = d.FarReadPS
	}
	if p.FarWritePS == 0 {
		p.FarWritePS = d.FarWritePS
	}
	if p.FarBusPS == 0 {
		p.FarBusPS = d.FarBusPS
	}
	if p.FarChannels == 0 {
		p.FarChannels = d.FarChannels
	}
	return p
}

// ResolvedHBM returns the spec's HBM parameters with defaults applied.
func (s Spec) ResolvedHBM() HBMParams {
	if s.HBM != nil {
		return s.HBM.merged()
	}
	return DefaultHBM()
}

// ResolvedNVM returns the spec's NVM parameters with defaults applied.
func (s Spec) ResolvedNVM() NVMParams {
	if s.NVM != nil {
		return s.NVM.Merged()
	}
	return DefaultNVM()
}

// ResolvedDRAMCache returns the spec's DRAM-cache parameters with
// defaults applied.
func (s Spec) ResolvedDRAMCache() DRAMCacheParams {
	if s.DRAMCache != nil {
		return s.DRAMCache.Merged()
	}
	return DefaultDRAMCache()
}
