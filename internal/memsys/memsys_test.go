package memsys

import (
	"reflect"
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// fakeNet records every Send and charges a fixed latency per hop.
type fakeNet struct {
	lat   clock.Duration
	sends []fakeSend
}

type fakeSend struct {
	from, to, bytes int
}

func (f *fakeNet) Send(from, to, bytes int, now clock.Time) clock.Time {
	f.sends = append(f.sends, fakeSend{from, to, bytes})
	return now.Add(f.lat)
}

func testTopo() Topology {
	return Topology{
		PUStop:    [NumPUs]int{0, 1},
		L3Base:    2,
		MCStop:    6,
		Tiles:     4,
		LineBytes: 64,
		ReqBytes:  16,
	}
}

func mustCache(t *testing.T, name string, size int) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{Name: name, SizeBytes: size, LineBytes: 64, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTopologyMapping(t *testing.T) {
	topo := testTopo()
	if got := topo.Line(0x1234); got != 0x1200 {
		t.Errorf("Line(0x1234) = %#x, want 0x1200", got)
	}
	if got := topo.TileFor(64 * 5); got != 1 {
		t.Errorf("TileFor(line 5) = %d, want 1", got)
	}
	if got := topo.TileStop(3); got != 5 {
		t.Errorf("TileStop(3) = %d, want 5", got)
	}
}

// countingBackend is a fixed-latency Backend that counts its reads.
type countingBackend struct {
	lat   clock.Duration
	reads int
}

func (b *countingBackend) Read(_ uint64, now clock.Time) clock.Time {
	b.reads++
	return now.Add(b.lat)
}

func (b *countingBackend) Writeback(uint64, clock.Time)         {}
func (b *countingBackend) Instrument(*obs.Batch, *obs.Registry) {}

// testChain is a GPU request path over real stages: a private L1, a
// four-entry MSHR file, fakeNet ring hops (3 ps each), four L3 tiles
// (20 ps) and a 100 ps counting backend.
type testChain struct {
	Chain
	env  *Env
	l1   *cache.Cache
	file *cache.MSHR
	mem  *countingBackend
}

func newTestChain(t *testing.T, prof *obs.HostProf) *testChain {
	t.Helper()
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	mem := &countingBackend{lat: 100}
	l3 := newTestL3(t, env, mem)
	l3.Net = net
	private := &PrivateStage{PU: GPU, L1: mustCache(t, "l1", 4096), Env: env}
	file := cache.NewMSHR(4)
	tc := &testChain{env: env, l1: private.L1, file: file, mem: mem}
	tc.Chain = Chain{
		Private: private,
		MSHR:    &MSHRStage{File: file},
		ReqHop:  &RingHopStage{Net: net, Topo: topo},
		L3:      l3,
		RespHop: &RingHopStage{Resp: true, Net: net, Topo: topo},
		Commit:  &CommitStage{Private: private, File: file, Env: env},
		Prof:    prof,
	}
	for i, name := range ProfSections() {
		if id := prof.Section(name); i == 0 {
			tc.ProfBase = id
		}
	}
	return tc
}

// run sends an L1 miss for addr through the chain; drop first removes
// the line from L1, as an eviction would.
func (tc *testChain) run(addr uint64, write, drop bool, now clock.Time) Request {
	if drop {
		tc.l1.Invalidate(addr)
	}
	var r Request
	r.Start(GPU, addr, addr&^63, write, now)
	tc.Run(&r)
	return r
}

func TestChainShortCircuits(t *testing.T) {
	const line = 0x40
	tc := newTestChain(t, nil)
	// Cold: hop out (3), L3 (20), hop to the controller (3), the read
	// (100), hop back (3), response hop (3).
	miss := tc.run(line, false, false, 0)
	if miss.Now != 132 || tc.mem.reads != 1 || tc.env.DRAMFills[GPU] != 1 {
		t.Fatalf("cold miss: now=%d reads=%d fills=%v, want the backend at 132",
			miss.Now, tc.mem.reads, tc.env.DRAMFills)
	}
	if !tc.L3.Tiles[1].Probe(line) || !tc.l1.Probe(line) {
		t.Fatal("the fetch must install the line into its L3 tile and L1")
	}

	// A second miss to the line while the first is in flight merges at
	// the MSHR and completes with the outstanding fill.
	merged := tc.run(line, false, true, 1)
	if merged.Now != miss.Now || tc.l1.Probe(line) || tc.mem.reads != 1 {
		t.Fatalf("in-flight miss: now=%d l1 refilled=%v reads=%d, want merged at %d without a fill",
			merged.Now, tc.l1.Probe(line), tc.mem.reads, miss.Now)
	}

	// Once the fill retired, the line is an L3 hit: two hops and the
	// tile, never the backend.
	hit := tc.run(line, false, true, 1_000_000)
	if hit.Now != 1_000_026 || tc.env.L3Hits[GPU] != 1 || tc.mem.reads != 1 {
		t.Fatalf("L3 hit: now=%d l3hits=%v reads=%d, want 1000026 without a read",
			hit.Now, tc.env.L3Hits, tc.mem.reads)
	}

	// The commit allocates at the time the request entered the shared
	// path, not at completion: with a one-entry file held by another
	// line until t=50, the allocation stalls until that entry retires.
	blocked := newTestChain(t, nil)
	blocked.file = cache.NewMSHR(1)
	blocked.MSHR.File, blocked.Commit.File = blocked.file, blocked.file
	blocked.file.Allocate(0x1000, 0, 50)
	stalled := blocked.run(line, false, false, 0)
	if stalled.Now != 132+50 {
		t.Errorf("commit with a full file: now=%d, want 182 (allocated at entry)", stalled.Now)
	}
}

func TestChainProfiledMatchesUnprofiled(t *testing.T) {
	prof := obs.NewHostProf(1)
	plain, timed := newTestChain(t, nil), newTestChain(t, prof)
	steps := []struct {
		addr  uint64
		write bool
		at    clock.Time
		drop  bool // invalidate the line in L1 first
	}{
		{0x40, false, 0, false},        // backend
		{0x80, true, 5, false},         // backend
		{0x40, false, 10, true},        // MSHR merge
		{0x40, false, 2_000_000, true}, // L3 hit
		{0xc0, true, 2_000_100, false}, // backend
	}
	for i, st := range steps {
		want := plain.run(st.addr, st.write, st.drop, st.at)
		got := timed.run(st.addr, st.write, st.drop, st.at)
		if got != want {
			t.Errorf("step %d: profiled %+v, unprofiled %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(timed.l1, plain.l1) || !reflect.DeepEqual(timed.L3.Tiles, plain.L3.Tiles) ||
		!reflect.DeepEqual(timed.file, plain.file) || !reflect.DeepEqual(timed.mem, plain.mem) ||
		timed.env.Counts != plain.env.Counts {
		t.Error("profiling changed cache, MSHR, backend or counter state")
	}
	reg := obs.NewRegistry()
	prof.FlushTo(reg)
	for name, want := range map[string]uint64{"xlat": 0, "private": 5, "mshr": 5, "l3": 4, "dram": 4, "commit": 4} {
		if got := reg.CounterValue("host.memsys." + name + ".samples"); got != want {
			t.Errorf("host.memsys.%s.samples = %d, want %d", name, got, want)
		}
	}
}

func TestRequestStartClearsState(t *testing.T) {
	r := Request{PU: CPU, Addr: 0x40, Now: 99}
	r.Start(GPU, 0x80, 0x80, true, 7)
	if r != (Request{PU: GPU, Addr: 0x80, Line: 0x80, Write: true, Now: 7}) {
		t.Errorf("Start left stale state: %+v", r)
	}
}

func TestMSHRStageMergesOutstanding(t *testing.T) {
	file := cache.NewMSHR(4)
	s := &MSHRStage{File: file}
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 10)
	if s.Process(&r) {
		t.Fatal("empty MSHR file must not merge")
	}
	file.Allocate(0x40, 10, 500)
	r.Start(CPU, 0x40, 0x40, false, 20)
	if !s.Process(&r) {
		t.Fatal("in-flight line must merge")
	}
	if r.Now != 500 {
		t.Errorf("merged request: now=%d, want 500", r.Now)
	}
}

func TestRingHopStageDirectionsAndSizes(t *testing.T) {
	net := &fakeNet{lat: 3}
	topo := testTopo()
	req := &RingHopStage{Net: net, Topo: topo}
	resp := &RingHopStage{Resp: true, Net: net, Topo: topo}

	var r Request
	addr := uint64(64 * 2) // tile 2, stop 4
	r.Start(GPU, addr, addr, false, 0)
	req.Process(&r)
	resp.Process(&r)
	if r.Now != 6 {
		t.Errorf("two hops at 3 each ended at %d", r.Now)
	}
	want := []fakeSend{
		{from: 1, to: 4, bytes: 16},      // gpu -> tile: request message
		{from: 4, to: 1, bytes: 64 + 16}, // tile -> gpu: line + header
	}
	for i, w := range want {
		if net.sends[i] != w {
			t.Errorf("send %d = %+v, want %+v", i, net.sends[i], w)
		}
	}
}

// The DDR3 backend sits behind L3Stage: an L3 hit never reaches the
// controller, and a miss hops tile -> controller -> tile and installs
// the line in its home tile.
func TestDRAMStageSkipsOnL3Hit(t *testing.T) {
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	s := &DRAMStage{Ctrl: ctrl}
	l3 := newTestL3(t, env, s)
	l3.Net = net

	l3.Tiles[1].Fill(0x40, false, false)
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	if !l3.Process(&r) || r.Now != 20 || len(net.sends) != 0 || ctrl.Stats().Requests != 0 {
		t.Fatal("an L3 hit must cost the tile only and never reach the controller")
	}

	r.Start(CPU, 0x80, 0x80, false, 0)
	if l3.Process(&r) {
		t.Fatal("cold line hit")
	}
	l3.Fetch(&r)
	if env.DRAMFills[CPU] != 1 || s.accesses != 1 || ctrl.Stats().Requests != 1 {
		t.Errorf("miss must reach DRAM once: fills=%v accesses=%d", env.DRAMFills, s.accesses)
	}
	if len(net.sends) != 2 || net.sends[0] != (fakeSend{4, topo.MCStop, 16}) ||
		net.sends[1] != (fakeSend{topo.MCStop, 4, 64 + 16}) {
		t.Errorf("miss must hop tile->mc->tile, got %+v", net.sends)
	}
	if !l3.Tiles[2].Probe(0x80) {
		t.Error("DRAM fill must install the line into its home L3 tile")
	}
}

func TestCoherenceStageNilSafe(t *testing.T) {
	var nilStage *CoherenceStage
	if got := nilStage.Apply(CPU, 0x40, 0x40, true, 10); got != 10 {
		t.Error("nil coherence stage must be free")
	}
	if nilStage.Directory() != nil {
		t.Error("nil stage has no directory")
	}
	off := &CoherenceStage{} // directory off
	if got := off.Apply(CPU, 0x40, 0x40, true, 10); got != 10 {
		t.Error("directory-off stage must be free")
	}
}

func TestPrivateStageHitLevels(t *testing.T) {
	env := &Env{}
	l1 := mustCache(t, "l1", 4096)
	l2 := mustCache(t, "l2", 8192)
	s := &PrivateStage{PU: CPU, L1: l1, L2: l2, L2Lat: 8, Env: env}

	// Cold: the L2 misses after charging its latency.
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 2)
	if s.Process(&r) || r.Now != 10 || l1.Probe(0x40) {
		t.Fatalf("cold access: now=%d, want a miss at 10 without an L1 fill", r.Now)
	}
	// Fill as the commit stage would, then evict from L1 only: the next
	// L1 miss is an L2 hit that refills L1.
	s.Fill(0x40, false)
	l1.Invalidate(0x40)
	r.Start(CPU, 0x40, 0x40, false, 2)
	if !s.Process(&r) || r.Now != 10 || !l1.Probe(0x40) {
		t.Fatalf("L2 hit: now=%d, want a hit at 10 refilling L1", r.Now)
	}
	if env.L2Hits != 1 {
		t.Error("L2 hit not recorded")
	}
	// A PU without a second level passes every L1 miss on, free.
	gpu := &PrivateStage{PU: GPU, L1: mustCache(t, "g1", 4096), Env: env}
	r.Start(GPU, 0x40, 0x40, false, 2)
	if gpu.Process(&r) || r.Now != 2 {
		t.Fatal("a PU without L2 must pass the request on untouched")
	}
}

func TestCommitStageAllocatesAtIssueTime(t *testing.T) {
	env := &Env{}
	file := cache.NewMSHR(4)
	s := &CommitStage{
		Private: &PrivateStage{PU: GPU, L1: mustCache(t, "l1", 4096), Env: env},
		File:    file,
		Env:     env,
	}
	var r Request
	r.Start(GPU, 0x40, 0x40, false, 0)
	r.Now = 400 // completion after ring/L3/DRAM
	if s.Process(&r, 10); r.Now != 400 {
		t.Fatalf("commit: now=%d, want 400", r.Now)
	}
	// The entry must span [10, 400]: a later request merges with it.
	if ready, ok := file.Outstanding(0x40, 200); !ok || ready != 400 {
		t.Errorf("MSHR entry missing or wrong window: ready=%d ok=%v", ready, ok)
	}
	if !s.Private.L1.Probe(0x40) {
		t.Error("commit must fill the private level")
	}
}
