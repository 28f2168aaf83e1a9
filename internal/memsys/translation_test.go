package memsys

import (
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
)

// noWalkCache returns a private-MMU spec with the walk cache disabled,
// so every miss pays the full multi-level walk — the simplest timing to
// assert against.
func noWalkCache(mmu xlat.MMUKind) xlat.Spec {
	return xlat.Spec{MMU: mmu, Walk: &xlat.WalkParams{CacheEntries: -1}}
}

func mustStage(t *testing.T, spec xlat.Spec) *TranslationStage {
	t.Helper()
	s, err := NewTranslationStage(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("nil stage for non-zero spec")
	}
	return s
}

func TestTranslationOffIsNil(t *testing.T) {
	s, err := NewTranslationStage(xlat.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("zero spec built a stage")
	}
	// Every accessor and mutator must be nil-safe — the hierarchy calls
	// them unconditionally.
	s.Flush(CPU)
	var b obs.Batch
	s.Instrument(&b, obs.NewRegistry())
	if s.Stats() != (TranslationStats{}) {
		t.Fatal("nil stage reported nonzero counters")
	}
}

func TestTranslationInvalidSpecRejected(t *testing.T) {
	if _, err := NewTranslationStage(xlat.Spec{MMU: xlat.NumMMUKinds}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestTranslationHitIsFree(t *testing.T) {
	s := mustStage(t, noWalkCache(xlat.Private))
	start := clock.Time(1000)
	afterMiss := s.Translate(CPU, 0x1000, start)
	if !afterMiss.After(start) {
		t.Fatal("miss charged nothing")
	}
	again := s.Translate(CPU, 0x1234, afterMiss)
	if again != afterMiss {
		t.Fatalf("TLB hit advanced time: %v -> %v", afterMiss, again)
	}
	if s.Stats().Lookups[CPU] != 2 || s.Stats().Misses[CPU] != 1 {
		t.Fatalf("lookups=%d misses=%d", s.Stats().Lookups[CPU], s.Stats().Misses[CPU])
	}
}

func TestTranslationMissChargesFullWalk(t *testing.T) {
	s := mustStage(t, noWalkCache(xlat.Private))
	want := clock.Duration(s.Levels) * s.LevelLat
	start := clock.Time(0)
	end := s.Translate(GPU, 0x4000, start)
	if got := end.Sub(start); got != want {
		t.Fatalf("walk charged %v, want %v", got, want)
	}
	if s.Stats().WalkPS[GPU] != uint64(want) {
		t.Fatalf("WalkPS = %d, want %d", s.Stats().WalkPS[GPU], want)
	}
}

func TestWalkCacheShortensRepeatWalks(t *testing.T) {
	s := mustStage(t, xlat.Spec{MMU: xlat.Private})
	if s.WalkCache[CPU] == nil {
		t.Fatal("default spec has no walk cache")
	}
	full := clock.Duration(s.Levels) * s.LevelLat
	start := clock.Time(0)
	// First miss: cold walk cache, full walk.
	end := s.Translate(CPU, 0x0000, start)
	if end.Sub(start) != full {
		t.Fatalf("cold walk charged %v, want %v", end.Sub(start), full)
	}
	// Next page in the same 2 MB region: the walk cache holds the
	// last-level table, so only one level is charged.
	end2 := s.Translate(CPU, 0x1000, end)
	if got := end2.Sub(end); got != s.LevelLat {
		t.Fatalf("cached walk charged %v, want %v", got, s.LevelLat)
	}
	if s.Stats().WalkCacheHits[CPU] != 1 {
		t.Fatalf("walk-cache hits = %d", s.Stats().WalkCacheHits[CPU])
	}
}

func TestSharedMMUSerialisesWalks(t *testing.T) {
	shared := mustStage(t, noWalkCache(xlat.Shared))
	private := mustStage(t, noWalkCache(xlat.Private))
	if !shared.SharedMMU() || private.SharedMMU() {
		t.Fatal("SharedMMU mislabeled")
	}
	walk := clock.Duration(shared.Levels) * shared.LevelLat
	start := clock.Time(0)
	// Both PUs miss at the same instant. Private walkers overlap; the
	// shared walker queues the second walk behind the first.
	pc := private.Translate(CPU, 0x10000, start)
	pg := private.Translate(GPU, 0x20000, start)
	if pc.Sub(start) != walk || pg.Sub(start) != walk {
		t.Fatalf("private walks: cpu %v gpu %v, want %v", pc.Sub(start), pg.Sub(start), walk)
	}
	sc := shared.Translate(CPU, 0x10000, start)
	sg := shared.Translate(GPU, 0x20000, start)
	if sc.Sub(start) != walk {
		t.Fatalf("first shared walk %v, want %v", sc.Sub(start), walk)
	}
	if sg.Sub(start) != 2*walk {
		t.Fatalf("second shared walk %v, want %v (queued)", sg.Sub(start), 2*walk)
	}
}

func TestIOMMUExtraCharged(t *testing.T) {
	spec := noWalkCache(xlat.Private)
	spec.IOMMU = xlat.IOMMUOn
	s := mustStage(t, spec)
	walk := clock.Duration(s.Levels) * s.LevelLat
	start := clock.Time(0)
	// The GPU walks through the IOMMU: full walk + interconnect extra.
	gpu := s.Translate(GPU, 0x1000, start)
	if got := gpu.Sub(start); got != walk+s.IOMMUExtra {
		t.Fatalf("IOMMU walk %v, want %v", got, walk+s.IOMMUExtra)
	}
	// The CPU keeps its core MMU.
	cpu := s.Translate(CPU, 0x1000, start)
	if got := cpu.Sub(start); got != walk {
		t.Fatalf("CPU walk %v, want %v", got, walk)
	}
	// The IOMMU path never builds a device walk cache.
	if s.WalkCache[GPU] != nil {
		t.Fatal("IOMMU path has a walk cache")
	}
}

func TestFlushShootsDownAndCounts(t *testing.T) {
	s := mustStage(t, xlat.Spec{MMU: xlat.Private})
	end := s.Translate(CPU, 0x1000, clock.Time(0))
	if got := s.Translate(CPU, 0x1000, end); got != end {
		t.Fatal("warm entry missed")
	}
	s.Flush(CPU)
	if s.Stats().Shootdowns[CPU] != 1 {
		t.Fatalf("shootdowns = %d", s.Stats().Shootdowns[CPU])
	}
	if got := s.Translate(CPU, 0x1000, end); got == end {
		t.Fatal("hit after shootdown")
	}
	// Only the flushed PU's TLB is affected.
	gEnd := s.Translate(GPU, 0x2000, clock.Time(0))
	s.Flush(CPU)
	if got := s.Translate(GPU, 0x2000, gEnd); got != gEnd {
		t.Fatal("CPU shootdown emptied the GPU TLB")
	}
}

func TestTranslationObservability(t *testing.T) {
	s := mustStage(t, xlat.Spec{MMU: xlat.Private})
	reg := obs.NewRegistry()
	var b obs.Batch
	s.Instrument(&b, reg)
	s.Translate(CPU, 0x1000, clock.Time(0))
	s.Translate(CPU, 0x1000, clock.Time(0))
	s.Flush(CPU)
	b.Flush()
	snap := reg.Snapshot()
	if got := snap.Counters["xlat.lookups.cpu"]; got != 2 {
		t.Fatalf("xlat.lookups.cpu = %d", got)
	}
	if got := snap.Counters["xlat.misses.cpu"]; got != 1 {
		t.Fatalf("xlat.misses.cpu = %d", got)
	}
	if got := snap.Counters["xlat.shootdowns.cpu"]; got != 1 {
		t.Fatalf("xlat.shootdowns.cpu = %d", got)
	}
	if snap.Counters["xlat.walk_ps.cpu"] == 0 {
		t.Fatal("xlat.walk_ps.cpu = 0")
	}
	// Instrumenting mid-run must only expose subsequent growth.
	reg2 := obs.NewRegistry()
	var b2 obs.Batch
	s.Instrument(&b2, reg2)
	b2.Flush()
	if got := reg2.Snapshot().Counters["xlat.lookups.cpu"]; got != 0 {
		t.Fatalf("re-instrumented baseline leaked %d lookups", got)
	}
}
