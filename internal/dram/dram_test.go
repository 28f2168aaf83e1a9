package dram

import (
	"math"
	"testing"
	"testing/quick"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
)

func TestDDR3ConfigBandwidth(t *testing.T) {
	cfg := DDR3_1333()
	// 64 B / 6 ns per channel = 10.667 GB/s; 4 channels ≈ 42.7 GB/s.
	// The paper rounds to 41.6 GB/s; accept the 40-43 range.
	bw := cfg.PeakBandwidthGBs()
	if bw < 40 || bw > 43 {
		t.Fatalf("peak bandwidth %.1f GB/s, want ~41.6", bw)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Channels: 0, BanksPerChannel: 8, LineBytes: 64, RowBytes: 8192},
		{Channels: 4, BanksPerChannel: 0, LineBytes: 64, RowBytes: 8192},
		{Channels: 4, BanksPerChannel: 8, LineBytes: 0, RowBytes: 8192},
		{Channels: 4, BanksPerChannel: 8, LineBytes: 64, RowBytes: 32},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := MustNew(DDR3_1333())
	cfg := c.Config()
	// First access to a closed bank: activate + CAS + burst.
	t1 := c.Submit(0, 0)
	want1 := clock.Time(0).Add(cfg.TRCD + cfg.TCAS + cfg.TBurst)
	if t1 != want1 {
		t.Fatalf("cold access done at %v, want %v", t1, want1)
	}
	// Same row, after bank free: CAS + burst only.
	base := t1
	// Same channel 0, bank 0, row 0: line index must be a multiple of
	// channels*banks but inside row 0.
	t2 := c.Submit(uint64(cfg.Channels*cfg.BanksPerChannel*cfg.LineBytes), base)
	hitLat := t2.Sub(base)
	if hitLat != cfg.TCAS+cfg.TBurst {
		t.Fatalf("row hit latency %v, want %v", hitLat, cfg.TCAS+cfg.TBurst)
	}
	// Different row in the same bank: precharge + activate + CAS + burst.
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChannel)
	t3 := c.Submit(rowStride, t2)
	confLat := t3.Sub(t2)
	if confLat != cfg.TRP+cfg.TRCD+cfg.TCAS+cfg.TBurst {
		t.Fatalf("row conflict latency %v, want %v", confLat, cfg.TRP+cfg.TRCD+cfg.TCAS+cfg.TBurst)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMisses != 2 || st.Requests != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestChannelInterleaving(t *testing.T) {
	c := MustNew(DDR3_1333())
	// Consecutive lines map to consecutive channels.
	ch0, _, _ := c.mapAddr(0)
	ch1, _, _ := c.mapAddr(64)
	ch2, _, _ := c.mapAddr(128)
	if ch0 == ch1 || ch1 == ch2 || ch0 == ch2 {
		t.Fatalf("lines not interleaved: ch %d %d %d", ch0, ch1, ch2)
	}
}

func TestBankConflictSerialises(t *testing.T) {
	c := MustNew(DDR3_1333())
	cfg := c.Config()
	// Two simultaneous requests to different rows of the same bank
	// serialise; two to different banks do not (beyond bus sharing).
	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.BanksPerChannel)
	t1 := c.Submit(0, 0)
	t2 := c.Submit(rowStride, 0)
	if t2 <= t1 {
		t.Fatalf("same-bank conflict did not serialise: %v then %v", t1, t2)
	}
	c = MustNew(DDR3_1333())
	bankStride := uint64(cfg.LineBytes * cfg.Channels)
	u1 := c.Submit(0, 0)
	u2 := c.Submit(bankStride*1, 0) // different bank, same channel
	// Bank access overlaps; only the burst serialises on the bus.
	if u2.Sub(0) >= t2.Sub(0) {
		t.Fatalf("different-bank pair (%v) not faster than same-bank pair (%v)", u2, t2)
	}
	_ = u1
}

func TestFRFCFSPrefersOpenRow(t *testing.T) {
	cfg := DDR3_1333()
	cfg.Channels = 1
	cfg.BanksPerChannel = 1

	mk := func(policy Policy) clock.Duration {
		cfg.Scheduling = policy
		c := MustNew(cfg)
		c.Submit(0, 0) // opens row 0
		rowStride := uint64(cfg.RowBytes)
		// Batch: conflict (older), hit, hit — FR-FCFS should run the two
		// row hits first and pay one conflict; FCFS pays conflict, then
		// two conflicts again (row ping-pong: 0->1->0 pattern below).
		reqs := []Request{
			{Addr: rowStride, Arrival: 1000},      // row 1: conflict
			{Addr: 64, Arrival: 1001},             // row 0: hit if served first
			{Addr: 128, Arrival: 1002},            // row 0: hit if served first
			{Addr: rowStride + 64, Arrival: 1003}, // row 1
		}
		done := c.SubmitBatch(reqs)
		latest := clock.Time(0)
		for _, d := range done {
			latest = clock.Max(latest, d)
		}
		return latest.Sub(0)
	}

	frfcfs := mk(FRFCFS)
	fcfs := mk(FCFS)
	if frfcfs >= fcfs {
		t.Fatalf("FR-FCFS (%v) not faster than FCFS (%v) on row-ping-pong batch", frfcfs, fcfs)
	}
}

func TestSubmitBatchEmpty(t *testing.T) {
	c := MustNew(DDR3_1333())
	if got := c.SubmitBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestSubmitBatchResultsAligned(t *testing.T) {
	c := MustNew(DDR3_1333())
	reqs := []Request{
		{Addr: 0, Arrival: 0},
		{Addr: 4096, Arrival: 0},
		{Addr: 64, Arrival: 0},
	}
	done := c.SubmitBatch(reqs)
	if len(done) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(done), len(reqs))
	}
	for i, d := range done {
		if d == 0 {
			t.Errorf("request %d has zero completion time", i)
		}
	}
}

// TestTransferTimeAllocFree pins that a transfer keeps only per-bank
// state: no size of transfer allocates.
func TestTransferTimeAllocFree(t *testing.T) {
	c := MustNew(DDR3_1333())
	for _, size := range []uint64{64 << 10, 1, 3 << 20} {
		if allocs := testing.AllocsPerRun(10, func() { c.TransferTime(size, 0) }); allocs != 0 {
			t.Fatalf("%d-byte TransferTime allocated %.0f times per call, want 0", size, allocs)
		}
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	c := MustNew(DDR3_1333())
	small := c.TransferTime(4096, 0).Sub(0)
	c = MustNew(DDR3_1333())
	large := c.TransferTime(65536, 0).Sub(0)
	if large <= small {
		t.Fatalf("64KB transfer (%v) not slower than 4KB (%v)", large, small)
	}
	// Streaming rate should approach the aggregate bandwidth: 64 KB at
	// ~41.6 GB/s is ~1.5 us. Allow generous bounds for row activates.
	us := large.Microseconds()
	if us < 1.0 || us > 4.0 {
		t.Fatalf("64KB streaming transfer took %.2fus, expected ~1.5-2us", us)
	}
}

func TestTransferTimeZero(t *testing.T) {
	c := MustNew(DDR3_1333())
	if c.TransferTime(0, 123) != 123 {
		t.Fatal("zero-byte transfer should take no time")
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
	s = Stats{Requests: 10, RowHits: 4}
	if math.Abs(s.RowHitRate()-0.4) > 1e-12 {
		t.Fatalf("hit rate %v", s.RowHitRate())
	}
}

// TestReset rebuilds a controller on its rewound arena after traffic
// opened rows and occupied the banks and buses: the carved channel and
// bank arrays come back zeroed, so the rebuilt controller is cold.
func TestReset(t *testing.T) {
	cfg := DDR3_1333()
	a := arena.New()
	c, err := NewIn(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		c.Submit(i*uint64(cfg.RowBytes), 0)
	}
	a.Reset()
	if c, err = NewIn(a, cfg); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Requests != 0 {
		t.Fatal("rebuilt controller kept stats")
	}
	if got := c.Submit(0, 0); got != clock.Time(0).Add(cfg.TRCD+cfg.TCAS+cfg.TBurst) {
		t.Fatalf("first access on the rebuilt controller at %v, want a cold-bank access", got)
	}
}

// Property: completion is always at or after arrival plus the minimum
// (row-hit) service time.
func TestCompletionLowerBoundProperty(t *testing.T) {
	cfg := DDR3_1333()
	minService := cfg.TCAS + cfg.TBurst
	f := func(addrs []uint32, deltas []uint8) bool {
		c := MustNew(cfg)
		var now clock.Time
		n := len(addrs)
		if len(deltas) < n {
			n = len(deltas)
		}
		for i := 0; i < n; i++ {
			now = now.Add(clock.Duration(deltas[i]) * clock.Nanosecond)
			done := c.Submit(uint64(addrs[i]), now)
			if done < now.Add(minService) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitStream(b *testing.B) {
	c := MustNew(DDR3_1333())
	var now clock.Time
	for i := 0; i < b.N; i++ {
		now = c.Submit(uint64(i)*64, now)
	}
}

func BenchmarkSubmitBatchFRFCFS(b *testing.B) {
	c := MustNew(DDR3_1333())
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i) * 64}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitBatch(reqs)
	}
}
