package memsys

import (
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// DRAMCacheStage is the two-level Backend: a set-associative DRAM cache
// (fast, small "near" memory — typically on-package stacked DRAM)
// fronting a slow, large "far" memory (NVM or a remote pool). Every
// access pays the near-memory tag-and-data probe; a hit ends there,
// while a miss continues to far memory and fills the near cache,
// possibly writing a dirty victim back to far memory. The interesting
// regime is the working set that fits near memory after warmup: it
// runs at near-DRAM speed against a far memory several times slower.
type DRAMCacheStage struct {
	// Dir tracks which lines currently reside in near memory; its
	// hit/miss/eviction stats are the cache's tag-array view.
	Dir *cache.Cache
	// NearChans/FarChans are the per-channel occupancy resources of the
	// two memories; lines interleave across each set.
	NearChans []clock.Resource
	FarChans  []clock.Resource
	NearLat   clock.Duration
	NearBus   clock.Duration
	FarRead   clock.Duration
	FarWrite  clock.Duration
	FarBus    clock.Duration
	// LineBytes is the line size both channel sets interleave on.
	LineBytes int

	hits       uint64
	misses     uint64
	fills      uint64
	writebacks uint64
}

// Read implements Backend: the near probe (tag check + data access) is
// always paid; a near miss adds the far read and installs the line near
// on the way back.
func (s *DRAMCacheStage) Read(addr uint64, now clock.Time) clock.Time {
	start, _ := s.NearChans[chanFor(addr, s.LineBytes, len(s.NearChans))].Acquire(now, s.NearBus)
	now = start.Add(s.NearLat)
	if s.Dir.Lookup(addr, false) {
		s.hits++
		return now
	}
	s.misses++
	start, _ = s.FarChans[chanFor(addr, s.LineBytes, len(s.FarChans))].Acquire(now, s.FarBus)
	now = start.Add(s.FarRead)
	s.fill(addr, false, now)
	return now
}

// fill installs the line into near memory: the data write occupies the
// near channel off the critical path, and a dirty victim goes back to
// far memory.
func (s *DRAMCacheStage) fill(addr uint64, dirty bool, now clock.Time) {
	s.fills++
	s.NearChans[chanFor(addr, s.LineBytes, len(s.NearChans))].Acquire(now, s.NearBus)
	ev := s.Dir.Fill(addr, false, dirty)
	if ev.Valid && ev.Dirty {
		s.writebacks++
		start, _ := s.FarChans[chanFor(ev.Addr, s.LineBytes, len(s.FarChans))].Acquire(now, s.FarBus)
		_ = start.Add(s.FarWrite)
	}
}

// Writeback implements Backend: a dirty L3 victim lands in near memory,
// write-allocating on a near miss so the line's eventual re-read hits.
func (s *DRAMCacheStage) Writeback(addr uint64, now clock.Time) {
	start, _ := s.NearChans[chanFor(addr, s.LineBytes, len(s.NearChans))].Acquire(now, s.NearBus)
	if s.Dir.Lookup(addr, true) {
		s.hits++
		return
	}
	s.misses++
	s.fill(addr, true, start.Add(s.NearLat))
}

// Instrument implements Backend, binding memtech.dram_cache.*: the
// stage's access counts plus the near-cache directory's stats under
// memtech.dram_cache.cache.*.
func (s *DRAMCacheStage) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "memtech.dram_cache.hits", &s.hits)
	b.Bind(reg, "memtech.dram_cache.misses", &s.misses)
	b.Bind(reg, "memtech.dram_cache.fills", &s.fills)
	b.Bind(reg, "memtech.dram_cache.writebacks", &s.writebacks)
	s.Dir.Instrument(b, reg, "memtech.dram_cache.cache")
}
