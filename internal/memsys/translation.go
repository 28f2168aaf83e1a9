package memsys

import (
	"fmt"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// TranslationStage is the per-PU address-translation front-end — the
// timed realisation of an xlat.Spec. Every core-issued access probes
// the issuing PU's TLB; a hit is free (the probe overlaps the L1
// lookup), a miss charges a multi-level page walk through the PU's
// walker resource, so concurrent walks on a shared MMU serialise
// exactly like banked DRAM or the shared ring. An optional walk cache
// short-circuits all but the last level; the IOMMU path (devices behind
// PCIe or the PCI aperture) pays a fixed interconnect round-trip extra
// and walks without the core walk caches.
//
// The hierarchy calls Translate before its L1 probe, ahead of the chain,
// and charges its host time to memsys.xlat. A nil *TranslationStage is
// the "axis off" value, so the translation-off configuration stays
// byte-identical; every method but Translate is nil-receiver safe.
type TranslationStage struct {
	TLB [NumPUs]*xlat.TLB
	// WalkCache holds upper-level page-table entries; nil disables it
	// for that PU (always nil on the IOMMU path).
	WalkCache [NumPUs]*xlat.TLB
	// Walker serialises page walks. A shared MMU aliases both slots to
	// one clock.Resource so cross-PU walks contend.
	Walker [NumPUs]*clock.Resource
	// Levels and LevelLat price a full walk; a walk-cache hit pays a
	// single level.
	Levels   int
	LevelLat clock.Duration
	// IOMMU marks PUs whose walks run through the IOMMU path; IOMMUExtra
	// is that path's fixed additional latency.
	IOMMU      [NumPUs]bool
	IOMMUExtra clock.Duration

	shared bool
	stats  TranslationStats
}

// TranslationStats counts translation events per PU.
type TranslationStats struct {
	// Lookups and Misses count TLB probes and misses.
	Lookups [NumPUs]uint64
	Misses  [NumPUs]uint64
	// WalkPS is the total picoseconds accesses spent stalled on page
	// walks, including walker queueing.
	WalkPS        [NumPUs]uint64
	WalkCacheHits [NumPUs]uint64
	// Shootdowns counts TLB flushes at page-table updates.
	Shootdowns [NumPUs]uint64
}

// NewTranslationStage builds the stage an xlat.Spec describes, or nil
// when the spec is the translation-off baseline. The spec's IOMMU mode
// must already be resolved (auto is treated as off; sim resolves it
// from the system's fabric before the hierarchy is built).
func NewTranslationStage(spec xlat.Spec) (*TranslationStage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.IsZero() {
		return nil, nil
	}
	walk := spec.ResolvedWalk()
	s := &TranslationStage{
		Levels:     walk.Levels,
		LevelLat:   clock.Duration(walk.LevelPS),
		IOMMUExtra: clock.Duration(walk.IOMMUExtraPS),
		shared:     spec.MMU == xlat.Shared,
	}
	s.IOMMU[GPU] = spec.IOMMU == xlat.IOMMUOn
	if s.shared {
		w := new(clock.Resource)
		s.Walker[CPU], s.Walker[GPU] = w, w
	} else {
		s.Walker[CPU] = new(clock.Resource)
		s.Walker[GPU] = new(clock.Resource)
	}
	for pu, params := range [NumPUs]xlat.TLBParams{CPU: spec.ResolvedCPU(), GPU: spec.ResolvedGPU()} {
		tlb, err := xlat.NewTLB(params.Entries, params.Ways, params.PageBytes)
		if err != nil {
			return nil, fmt.Errorf("translation.%v: %w", PU(pu), err)
		}
		s.TLB[pu] = tlb
		if walk.CacheEntries > 0 && !s.IOMMU[pu] {
			// One walk-cache entry covers a last-level table page — 512
			// translations — so the cache is a fully associative TLB at
			// pageBits+9 granularity.
			s.WalkCache[pu] = xlat.MustNewTLB(walk.CacheEntries, walk.CacheEntries, params.PageBytes<<9)
		}
	}
	return s, nil
}

// Translate charges addr's translation for pu at time now and returns
// the time the physical address is available. A TLB hit returns now
// unchanged: the probe runs in parallel with the L1 tag check.
func (s *TranslationStage) Translate(pu PU, addr uint64, now clock.Time) clock.Time {
	s.stats.Lookups[pu]++
	if s.TLB[pu].Lookup(addr) {
		return now
	}
	s.stats.Misses[pu]++
	levels := s.Levels
	if wc := s.WalkCache[pu]; wc != nil && wc.Lookup(addr) {
		s.stats.WalkCacheHits[pu]++
		levels = 1
	}
	lat := clock.Duration(levels) * s.LevelLat
	if s.IOMMU[pu] {
		lat += s.IOMMUExtra
	}
	_, end := s.Walker[pu].Acquire(now, lat)
	s.stats.WalkPS[pu] += uint64(end.Sub(now))
	return end
}

// Flush shoots down pu's translations — TLB and walk cache — as a page
// table update demands (ownership handovers and lib-pf faults remap
// pages, so the hierarchy's FlushPrivate calls through here). Nil-safe
// so callers need no axis check.
func (s *TranslationStage) Flush(pu PU) {
	if s == nil {
		return
	}
	s.stats.Shootdowns[pu]++
	s.TLB[pu].Flush()
	if wc := s.WalkCache[pu]; wc != nil {
		wc.Flush()
	}
}

// Instrument binds the stage's counts into b as registry counters
// under xlat.*.
func (s *TranslationStage) Instrument(b *obs.Batch, reg *obs.Registry) {
	if s == nil {
		return
	}
	for pu := PU(0); pu < NumPUs; pu++ {
		b.Bind(reg, "xlat.lookups."+pu.String(), &s.stats.Lookups[pu])
		b.Bind(reg, "xlat.misses."+pu.String(), &s.stats.Misses[pu])
		b.Bind(reg, "xlat.walk_ps."+pu.String(), &s.stats.WalkPS[pu])
		b.Bind(reg, "xlat.walk_cache_hits."+pu.String(), &s.stats.WalkCacheHits[pu])
		b.Bind(reg, "xlat.shootdowns."+pu.String(), &s.stats.Shootdowns[pu])
	}
}

// SharedMMU reports whether both PUs walk through one shared walker.
func (s *TranslationStage) SharedMMU() bool { return s != nil && s.shared }

// Stats returns the translation counters; all zero on a nil stage (the
// axis off).
func (s *TranslationStage) Stats() TranslationStats {
	if s == nil {
		return TranslationStats{}
	}
	return s.stats
}
