package memsys

import (
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// newTestL3 returns an L3Stage over four small tiles in front of mem;
// callers that fetch set its Net.
func newTestL3(t *testing.T, env *Env, mem Backend) *L3Stage {
	t.Helper()
	return &L3Stage{
		Tiles: []*cache.Cache{
			mustCache(t, "t0", 4096), mustCache(t, "t1", 4096),
			mustCache(t, "t2", 4096), mustCache(t, "t3", 4096),
		},
		Lat: 20, Mem: mem, Topo: testTopo(), Env: env,
	}
}

func TestHBMStageServesMiss(t *testing.T) {
	ctrl, err := dram.New(dram.Config{
		Channels: 2, BanksPerChannel: 2, LineBytes: 64, RowBytes: 2048,
		TCAS: 10, TRCD: 10, TRP: 10, TBurst: 4, TCCD: 2,
		Scheduling: dram.FRFCFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &HBMStage{Ctrl: ctrl, ExtraLat: 100}

	// ExtraLat (100) + first access tRCD+tCAS+tBurst (24).
	if got, want := s.Read(0x40, 3), clock.Time(127); got != want {
		t.Errorf("completion = %d, want %d", got, want)
	}
	if s.accesses != 1 || ctrl.Stats().Requests != 1 {
		t.Errorf("read must reach the stack once: accesses=%d", s.accesses)
	}
}

func TestNVMReadWriteAsymmetry(t *testing.T) {
	s := &NVMStage{
		Chans:   make([]clock.Resource, 1),
		ReadLat: 100, WriteLat: 1000, Bus: 10, QueueDepth: 2, LineBytes: 64,
	}

	if got := s.Read(0x40, 0); got != 100 || s.reads != 1 {
		t.Errorf("read completion = %d (reads=%d), want 100", got, s.reads)
	}

	// Writebacks drain serially: each extends the horizon by WriteLat.
	s.Writeback(0x1000, 200)
	s.Writeback(0x1040, 200)
	if s.writes != 2 || s.horizon != 200+2*1000 {
		t.Errorf("horizon = %d after two writes, want 2200", s.horizon)
	}
}

func TestNVMWriteQueueStallsReads(t *testing.T) {
	s := &NVMStage{
		Chans:   make([]clock.Resource, 1),
		ReadLat: 100, WriteLat: 1000, Bus: 0, QueueDepth: 2, LineBytes: 64,
	}

	// Queue three writes at t=0: horizon 3000, two writes' worth beyond
	// the depth-2 bound for any read arriving before t=1000.
	for i := uint64(0); i < 3; i++ {
		s.Writeback(0x1000+i*64, 0)
	}
	// The read waits until the backlog drops to QueueDepth (t=1000),
	// then pays its own latency.
	if got, want := s.Read(0x40, 0), clock.Time(1100); got != want {
		t.Errorf("stalled read completes at %d, want %d", got, want)
	}
	if s.writeStalls != 1 {
		t.Errorf("writeStalls = %d, want 1", s.writeStalls)
	}

	// After the drain horizon passes, reads are admitted immediately.
	if got, want := s.Read(0x80, 5000), clock.Time(5100); got != want {
		t.Errorf("unstalled read completes at %d, want %d", got, want)
	}
	if s.writeStalls != 1 {
		t.Errorf("unstalled read must not count a stall, got %d", s.writeStalls)
	}
}

func TestDRAMCacheHitMissFill(t *testing.T) {
	dir, err := cache.New(cache.Config{
		Name: "dram_cache", SizeBytes: 8192, LineBytes: 64, Ways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &DRAMCacheStage{
		Dir:       dir,
		NearChans: make([]clock.Resource, 1),
		FarChans:  make([]clock.Resource, 1),
		NearLat:   50, NearBus: 0, FarRead: 500, FarWrite: 800, FarBus: 0,
		LineBytes: 64,
	}

	// Cold miss: near probe + far read, and the line fills near memory.
	if got, want := s.Read(0x40, 0), clock.Time(550); got != want {
		t.Errorf("cold miss completes at %d, want %d", got, want)
	}
	if s.misses != 1 || s.fills != 1 || s.hits != 0 {
		t.Errorf("cold miss counters: hits=%d misses=%d fills=%d",
			s.hits, s.misses, s.fills)
	}

	// Re-read: near memory now holds the line.
	if got, want := s.Read(0x40, 1000), clock.Time(1050); got != want {
		t.Errorf("near hit completes at %d, want %d", got, want)
	}
	if s.hits != 1 {
		t.Errorf("hits = %d, want 1", s.hits)
	}

	// A dirty L3 victim write-allocates into near memory.
	s.Writeback(0x2000, 2000)
	if s.fills != 2 {
		t.Errorf("writeback must fill near memory, fills = %d", s.fills)
	}
	s.Read(0x2000, 3000)
	if s.hits != 2 {
		t.Errorf("written-back line must hit near memory, hits = %d", s.hits)
	}
}

func TestDRAMCacheDirtyVictimGoesFar(t *testing.T) {
	// Direct-mapped 2-line cache: two same-set dirty fills force a dirty
	// eviction to far memory.
	dir, err := cache.New(cache.Config{
		Name: "dram_cache", SizeBytes: 128, LineBytes: 64, Ways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &DRAMCacheStage{
		Dir:       dir,
		NearChans: make([]clock.Resource, 1),
		FarChans:  make([]clock.Resource, 1),
		NearLat:   50, NearBus: 0, FarRead: 500, FarWrite: 800, FarBus: 10,
		LineBytes: 64,
	}

	s.Writeback(0x0000, 0)   // dirty line in set 0
	s.Writeback(0x0080, 100) // same set: evicts the first, dirty
	if s.writebacks != 1 {
		t.Errorf("far writebacks = %d, want 1", s.writebacks)
	}
	// Far channel served the eviction's transfer (plus nothing else): one
	// FarBus occupancy from when the second write's fill lands near.
	if got, want := s.FarChans[0].FreeAt(), clock.Time(100).Add(s.NearLat+s.FarBus); got != want {
		t.Errorf("far channel free at %v, want %v", got, want)
	}
}

// A backend's counts bound into a batch must flush exactly the delta
// since the last flush.
func TestBackendCounterFlush(t *testing.T) {
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	s := &DRAMStage{Ctrl: ctrl}

	reg := obs.NewRegistry()
	var b obs.Batch
	s.Instrument(&b, reg)
	for i := uint64(0); i < 3; i++ {
		s.Read(i*64, 0)
	}
	b.Flush()
	if got := reg.Snapshot().Counters["memtech.dram.accesses"]; got != 3 {
		t.Errorf("flushed accesses = %d, want 3", got)
	}
	b.Flush() // idempotent with no new events
	if got := reg.Snapshot().Counters["memtech.dram.accesses"]; got != 3 {
		t.Errorf("double flush = %d, want 3", got)
	}
}
