package memsys

import (
	"reflect"
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
	"heteromem/internal/xlat"
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

// testChain is a GPU request path over real stages: a private L1, a
// four-entry MSHR file, fakeNet ring hops, four L3 tiles and a DDR3
// DRAMStage.
type testChain struct {
	Chain
	env  *Env
	l1   *cache.Cache
	file *cache.MSHR
}

func newTestChain(t *testing.T, prof *obs.HostProf) *testChain {
	t.Helper()
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	l3 := newTestL3(t, env)
	backend := &DRAMStage{Ctrl: ctrl, Net: net, Topo: topo, L3: l3, Env: env}
	l3.Mem = backend
	private := &PrivateStage{PU: GPU, L1: mustCache(t, "l1", 4096), L1Lat: 2, Env: env}
	file := cache.NewMSHR(4)
	tc := &testChain{env: env, l1: private.L1, file: file}
	tc.Chain = Chain{
		Private: private,
		MSHR:    &MSHRStage{File: file},
		ReqHop:  &RingHopStage{Stage: StageRingReq, Net: net, Topo: topo},
		L3:      l3,
		Backend: backend,
		RespHop: &RingHopStage{Stage: StageRingResp, Net: net, Topo: topo},
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

func (tc *testChain) run(addr uint64, write bool, now clock.Time) Request {
	var r Request
	r.Start(GPU, addr, addr&^63, write, now)
	tc.Run(&r)
	return r
}

func TestChainStampsAndShortCircuits(t *testing.T) {
	const line = 0x40
	tc := newTestChain(t, nil)
	miss := tc.run(line, false, 0)
	if miss.Flags&FlagDRAM == 0 || miss.L1Way < 0 {
		t.Fatalf("cold access must reach DRAM and fill L1: flags=%v l1way=%d", miss.Flags, miss.L1Way)
	}
	for s := StagePrivate + 1; s <= StageCommit; s++ {
		if s == StageCoherence {
			continue // sub-stage, stamped only when the directory acts
		}
		if miss.Stamp[s] < miss.Stamp[s-1] || miss.Stamp[s] == 0 {
			t.Errorf("full miss: stamp[%v]=%d after stamp[%v]=%d", s, miss.Stamp[s], s-1, miss.Stamp[s-1])
		}
	}
	if miss.Stamp[StageCommit] != miss.Now || miss.Stamp[StageXlat] != 0 {
		t.Errorf("full miss: stamps %v, completion %d", miss.Stamp, miss.Now)
	}

	// A second miss to the line while the first is in flight merges at
	// the MSHR and completes with the outstanding fill.
	tc.l1.Invalidate(line)
	merged := tc.run(line, false, miss.Stamp[StageMSHR]+1)
	if merged.Flags&FlagMerged == 0 || merged.Now != miss.Now || merged.L1Way != -1 {
		t.Fatalf("in-flight miss: flags=%v now=%d l1way=%d, want merged at %d",
			merged.Flags, merged.Now, merged.L1Way, miss.Now)
	}
	if merged.Stamp[StageMSHR] != miss.Now {
		t.Errorf("merge stamped at %d, want %d", merged.Stamp[StageMSHR], miss.Now)
	}
	for s := StageMSHR + 1; s < NumStages; s++ {
		if merged.Stamp[s] != 0 {
			t.Errorf("merge stamped skipped stage %v at %d", s, merged.Stamp[s])
		}
	}

	// The commit allocates at the MSHR stamp, not at completion: with a
	// one-entry file held by another line until between the two, the
	// allocation stalls until that entry retires.
	blocked := newTestChain(t, nil)
	blocked.file = cache.NewMSHR(1)
	blocked.MSHR.File, blocked.Commit.File = blocked.file, blocked.file
	retire := miss.Stamp[StageMSHR] + 50
	blocked.file.Allocate(0x1000, 0, retire)
	stalled := blocked.run(line, false, 0)
	if stalled.Stamp[StageMSHR] != miss.Stamp[StageMSHR] || retire >= stalled.Stamp[StageRingResp] {
		t.Fatalf("blocked run diverged before commit: stamps %v", stalled.Stamp)
	}
	if want := miss.Now.Add(retire.Sub(miss.Stamp[StageMSHR])); stalled.Now != want || blocked.file.Stalls() != 1 {
		t.Errorf("commit with a full file: now=%d stalls=%d, want %d and 1 (allocated at the MSHR stamp)",
			stalled.Now, blocked.file.Stalls(), want)
	}
}

func TestChainProfiledMatchesUnprofiled(t *testing.T) {
	prof := obs.NewHostProf(1)
	plain, timed := newTestChain(t, nil), newTestChain(t, prof)
	plain.Xlat = mustStage(t, noWalkCache(xlat.Private))
	timed.Xlat = mustStage(t, noWalkCache(xlat.Private))
	steps := []struct {
		addr  uint64
		write bool
		at    clock.Time
		drop  bool  // invalidate the line in L1 first
		flag  Flags // the path the step must take
	}{
		{0x40, false, 0, false, FlagDRAM},
		{0x80, true, 5, false, FlagDRAM},
		{0x40, false, 10, true, FlagMerged},
		{0x80, false, 1_000_000, false, FlagL1Hit},
		{0x40, false, 2_000_000, true, FlagL3Hit},
	}
	for i, st := range steps {
		if st.drop {
			plain.l1.Invalidate(st.addr)
			timed.l1.Invalidate(st.addr)
		}
		want := plain.run(st.addr, st.write, st.at)
		got := timed.run(st.addr, st.write, st.at)
		if want.Flags&st.flag == 0 {
			t.Errorf("step %d: flags %v, want %v set", i, want.Flags, st.flag)
		}
		if got.Now != want.Now || got.Flags != want.Flags || got.Stamp != want.Stamp || got.L1Way != want.L1Way {
			t.Errorf("step %d: profiled %+v, unprofiled %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(timed.l1, plain.l1) || !reflect.DeepEqual(timed.L3.Tiles, plain.L3.Tiles) ||
		!reflect.DeepEqual(timed.file, plain.file) || !reflect.DeepEqual(timed.Xlat, plain.Xlat) ||
		timed.env.Counts != plain.env.Counts {
		t.Error("profiling changed cache, MSHR, TLB or counter state")
	}
	reg := obs.NewRegistry()
	prof.FlushTo(reg)
	for name, want := range map[string]uint64{"xlat": 5, "private": 5, "mshr": 4, "commit": 3} {
		if got := reg.CounterValue("host.memsys." + name + ".samples"); got != want {
			t.Errorf("host.memsys.%s.samples = %d, want %d", name, got, want)
		}
	}
}

func TestRequestStartClearsState(t *testing.T) {
	var r Request
	r.Flags = FlagDRAM
	r.Stamp[StageL3] = 99
	r.Start(GPU, 0x80, 0x80, true, 7)
	if r.Flags != 0 || r.Stamp[StageL3] != 0 {
		t.Errorf("Start left stale state: flags=%v stamp=%v", r.Flags, r.Stamp)
	}
	if r.PU != GPU || !r.Write || r.Issue != 7 || r.Now != 7 {
		t.Errorf("Start fields wrong: %+v", r)
	}
}

func TestMSHRStageMergesOutstanding(t *testing.T) {
	file := cache.NewMSHR(4)
	s := &MSHRStage{File: file}
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 10)
	if v := s.Process(&r); v != Next {
		t.Fatal("empty MSHR file must not merge")
	}
	file.Allocate(0x40, 10, 500)
	r.Start(CPU, 0x40, 0x40, false, 20)
	if v := s.Process(&r); v != Done {
		t.Fatal("in-flight line must merge")
	}
	if r.Now != 500 || r.Flags&FlagMerged == 0 {
		t.Errorf("merged request: now=%d flags=%v, want now=500 merged", r.Now, r.Flags)
	}
}

func TestRingHopStageDirectionsAndSizes(t *testing.T) {
	net := &fakeNet{lat: 3}
	topo := testTopo()
	req := &RingHopStage{Stage: StageRingReq, Net: net, Topo: topo}
	resp := &RingHopStage{Stage: StageRingResp, Net: net, Topo: topo}

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

func TestDRAMStageSkipsOnL3Hit(t *testing.T) {
	ctrl, err := dram.New(dram.DDR3_1333())
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{}
	net := &fakeNet{lat: 3}
	topo := testTopo()
	l3 := &L3Stage{
		Tiles: []*cache.Cache{
			mustCache(t, "t0", 4096), mustCache(t, "t1", 4096),
			mustCache(t, "t2", 4096), mustCache(t, "t3", 4096),
		},
		Lat: 20, Topo: topo, Env: env,
	}
	s := &DRAMStage{Ctrl: ctrl, Net: net, Topo: topo, L3: l3, Env: env}
	l3.Mem = s

	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	r.Flags |= FlagL3Hit
	if s.Process(&r); r.Now != 0 || len(net.sends) != 0 {
		t.Fatal("DRAM stage must be free on an L3 hit")
	}

	r.Start(CPU, 0x40, 0x40, false, 0)
	s.Process(&r)
	if r.Flags&FlagDRAM == 0 || env.DRAMFills[CPU] != 1 {
		t.Errorf("miss must reach DRAM: flags=%v fills=%v", r.Flags, env.DRAMFills)
	}
	if len(net.sends) != 2 || net.sends[0].to != topo.MCStop {
		t.Errorf("miss must hop tile->mc->tile, got %+v", net.sends)
	}
	if !l3.Tiles[1].Probe(0x40) {
		t.Error("DRAM fill must install the line into its home L3 tile")
	}
}

func TestCoherenceStageNilSafe(t *testing.T) {
	var nilStage *CoherenceStage
	var r Request
	r.Start(CPU, 0x40, 0x40, true, 10)
	if v := nilStage.Process(&r); v != Next || r.Now != 10 {
		t.Error("nil coherence stage must be a free pass-through")
	}
	if nilStage.Directory() != nil {
		t.Error("nil stage has no directory")
	}
	off := &CoherenceStage{} // directory off
	if v := off.Process(&r); v != Next || r.Now != 10 {
		t.Error("directory-off stage must be a free pass-through")
	}
}

func TestPrivateStageHitLevels(t *testing.T) {
	env := &Env{}
	l1 := mustCache(t, "l1", 4096)
	l2 := mustCache(t, "l2", 8192)
	s := &PrivateStage{PU: CPU, L1: l1, L1Lat: 2, L2: l2, L2Lat: 8, Env: env}

	// Cold: both levels miss, both latencies charged.
	var r Request
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Next || r.Now != 10 {
		t.Fatalf("cold access: verdict=%v now=%d, want Next at 10", v, r.Now)
	}
	// Fill as the commit stage would, then re-access: L1 hit at L1 latency.
	s.Fill(0x40, false)
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Done || r.Now != 2 {
		t.Fatalf("L1 hit: verdict=%v now=%d, want Done at 2", v, r.Now)
	}
	if env.L1Hits[CPU] != 1 || r.Flags&FlagL1Hit == 0 {
		t.Error("L1 hit not recorded")
	}
	// Evict from L1 only: next access is an L2 hit at L1+L2 latency.
	l1.Invalidate(0x40)
	r.Start(CPU, 0x40, 0x40, false, 0)
	if v := s.Process(&r); v != Done || r.Now != 10 {
		t.Fatalf("L2 hit: verdict=%v now=%d, want Done at 10", v, r.Now)
	}
	if env.L2Hits != 1 || r.Flags&FlagL2Hit == 0 {
		t.Error("L2 hit not recorded")
	}
}

func TestCommitStageAllocatesAtIssueTime(t *testing.T) {
	env := &Env{}
	file := cache.NewMSHR(4)
	s := &CommitStage{
		Private: &PrivateStage{PU: GPU, L1: mustCache(t, "l1", 4096), L1Lat: 2, Env: env},
		File:    file,
		Env:     env,
	}
	var r Request
	r.Start(GPU, 0x40, 0x40, false, 0)
	r.Stamp[StageMSHR] = 10 // time the request entered the shared path
	r.Now = 400             // completion after ring/L3/DRAM
	if v := s.Process(&r); v != Done || r.Now != 400 {
		t.Fatalf("commit: verdict=%v now=%d, want Done at 400", v, r.Now)
	}
	// The entry must span [10, 400]: a later request merges with it.
	if ready, ok := file.Outstanding(0x40, 200); !ok || ready != 400 {
		t.Errorf("MSHR entry missing or wrong window: ready=%d ok=%v", ready, ok)
	}
	if !s.Private.L1.Probe(0x40) {
		t.Error("commit must fill the private level")
	}
}
