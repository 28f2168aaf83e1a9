package cpu

import (
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/trace"
)

// fakeMem is a fixed-latency memory for isolating the core model.
type fakeMem struct {
	lat      clock.Duration
	accesses int
	pushes   int
}

func (f *fakeMem) Access(pu mem.PU, addr uint64, write bool, now clock.Time) clock.Time {
	f.accesses++
	return now.Add(f.lat)
}

func (f *fakeMem) Push(pu mem.PU, addr uint64, size uint32, level mem.Level, now clock.Time) clock.Time {
	f.pushes++
	return now.Add(f.lat)
}

func zeroComm(isa.Kind, uint32) clock.Duration { return 0 }

func newCore(m Memory, comm config.CommCoster) *Core {
	if comm == nil {
		comm = zeroComm
	}
	return New(config.BaselineCPU(), m, comm)
}

func alu(n int) trace.Stream {
	s := make(trace.Stream, n)
	for i := range s {
		s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.ALU}
	}
	return s
}

func TestIndependentALUIssuesAtFullWidth(t *testing.T) {
	c := newCore(&fakeMem{}, nil)
	n := 4000
	end, st := c.RunStream(alu(n), 0)
	cycles := c.Domain().DurationToCycles(end.Sub(0))
	// 4-wide issue: ~n/4 cycles (a couple of cycles of slack at the ends).
	want := uint64(n / 4)
	if cycles+4 < want || cycles > want+4 {
		t.Fatalf("ran %d ALU ops in %d cycles, want ~%d", n, cycles, want)
	}
	if st.Instructions != uint64(n) {
		t.Fatalf("instructions = %d", st.Instructions)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	c := newCore(&fakeMem{}, nil)
	n := 1000
	s := make(trace.Stream, n)
	for i := range s {
		s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.ALU, Dep1: 1}
	}
	end, _ := c.RunStream(s, 0)
	cycles := c.Domain().DurationToCycles(end.Sub(0))
	// A serial chain of 1-cycle ops takes ~n cycles, not n/4.
	if cycles < uint64(n)-2 {
		t.Fatalf("dependent chain took %d cycles, want >= %d", cycles, n)
	}
}

func TestMispredictStallsDispatch(t *testing.T) {
	mkStream := func(taken func(i int) bool) trace.Stream {
		var s trace.Stream
		for i := 0; i < 2000; i++ {
			s = append(s, trace.Inst{PC: 0x100, Kind: isa.Branch, Taken: taken(i)})
			s = append(s, trace.Inst{PC: uint64(0x200 + i*4), Kind: isa.ALU})
		}
		return s
	}
	// Steady branch: learned quickly.
	cSteady := newCore(&fakeMem{}, nil)
	endSteady, stSteady := cSteady.RunStream(mkStream(func(int) bool { return true }), 0)
	// Pseudo-random branch: mispredicts often.
	cRand := newCore(&fakeMem{}, nil)
	endRand, stRand := cRand.RunStream(mkStream(func(i int) bool { return (i*2654435761)>>13&1 == 0 }), 0)
	if stRand.Mispredicts <= stSteady.Mispredicts {
		t.Fatalf("random branches mispredicted %d <= steady %d", stRand.Mispredicts, stSteady.Mispredicts)
	}
	if endRand <= endSteady {
		t.Fatal("mispredictions did not cost time")
	}
}

func TestLoadLatencyExposedThroughDeps(t *testing.T) {
	m := &fakeMem{lat: 100 * clock.Nanosecond}
	c := newCore(m, nil)
	// load ; dependent ALU — the ALU waits for the load.
	s := trace.Stream{
		{Kind: isa.Load, Addr: 0x1000, Size: 8},
		{Kind: isa.ALU, Dep1: 1},
	}
	end, st := c.RunStream(s, 0)
	if end.Sub(0) < 100*clock.Nanosecond {
		t.Fatalf("dependent ALU did not wait for load: end %v", end)
	}
	if st.MemOps != 1 || m.accesses != 1 {
		t.Fatal("load not issued to memory")
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	m := &fakeMem{lat: 100 * clock.Nanosecond}
	c := newCore(m, nil)
	s := trace.Stream{
		{Kind: isa.Load, Addr: 0x1000, Size: 8},
		{Kind: isa.Load, Addr: 0x2000, Size: 8},
		{Kind: isa.Load, Addr: 0x3000, Size: 8},
		{Kind: isa.Load, Addr: 0x4000, Size: 8},
	}
	end, _ := c.RunStream(s, 0)
	// All four overlap: total ≈ one load latency, not four.
	if end.Sub(0) > 150*clock.Nanosecond {
		t.Fatalf("independent loads serialised: %v", end.Sub(0))
	}
}

func TestStoreDoesNotBlockButBarrierDrains(t *testing.T) {
	m := &fakeMem{lat: 100 * clock.Nanosecond}
	c := newCore(m, nil)
	s := trace.Stream{
		{Kind: isa.Store, Addr: 0x1000, Size: 8},
		{Kind: isa.ALU, Dep1: 1},
	}
	end, _ := c.RunStream(s, 0)
	// Dependent of a store sees the store buffer, not memory... but the
	// run end includes the drain.
	if end.Sub(0) < 100*clock.Nanosecond {
		t.Fatalf("run ended before store drained: %v", end.Sub(0))
	}

	c2 := newCore(&fakeMem{lat: 100 * clock.Nanosecond}, nil)
	s2 := trace.Stream{
		{Kind: isa.Store, Addr: 0x1000, Size: 8},
		{Kind: isa.Barrier},
		{Kind: isa.ALU},
	}
	end2, _ := c2.RunStream(s2, 0)
	if end2.Sub(0) < 100*clock.Nanosecond {
		t.Fatal("barrier did not wait for store drain")
	}
}

func TestROBLimitsRunahead(t *testing.T) {
	// One very slow load followed by many independent ALU ops: dispatch
	// must stall once the ROB fills, so the run takes at least the load
	// latency even though the ALUs are independent.
	m := &fakeMem{lat: 10 * clock.Microsecond}
	c := newCore(m, nil)
	s := trace.Stream{{Kind: isa.Load, Addr: 0x1000, Size: 8}}
	for i := 0; i < 1000; i++ {
		s = append(s, trace.Inst{PC: uint64(i) * 4, Kind: isa.ALU})
	}
	end, _ := c.RunStream(s, 0)
	if end.Sub(0) < 10*clock.Microsecond {
		t.Fatalf("ROB did not limit runahead: %v", end.Sub(0))
	}
}

func TestCommSerialisesAndAccumulates(t *testing.T) {
	params := config.TableIV()
	c := newCore(&fakeMem{}, params.Latency)
	s := trace.Stream{
		{Kind: isa.ALU},
		{Kind: isa.APIPCI, Size: 65536},
		{Kind: isa.ALU},
	}
	end, st := c.RunStream(s, 0)
	want := params.Latency(isa.APIPCI, 65536)
	if st.CommTime != want {
		t.Fatalf("CommTime = %v, want %v", st.CommTime, want)
	}
	if end.Sub(0) < want {
		t.Fatal("API call did not serialise the core")
	}
	if st.CommOps != 1 {
		t.Fatalf("CommOps = %d", st.CommOps)
	}
}

func TestPushRoutedToMemory(t *testing.T) {
	m := &fakeMem{lat: clock.Nanosecond}
	c := newCore(m, nil)
	s := trace.Stream{{Kind: isa.Push, Addr: 0x1000, Size: 4096, PushLevel: trace.PushShared}}
	_, st := c.RunStream(s, 0)
	if m.pushes != 1 || st.PushOps != 1 {
		t.Fatalf("push not routed: mem=%d stat=%d", m.pushes, st.PushOps)
	}
}

func TestStrongConsistencySlowerOnStores(t *testing.T) {
	var s trace.Stream
	for i := 0; i < 500; i++ {
		s = append(s, trace.Inst{PC: uint64(i), Kind: isa.Store, Addr: uint64(i) * 64, Size: 8})
		s = append(s, trace.Inst{PC: uint64(i), Kind: isa.ALU})
	}
	weak := newCore(&fakeMem{lat: 50 * clock.Nanosecond}, nil)
	weakEnd, _ := weak.RunStream(s, 0)

	cfg := config.BaselineCPU()
	cfg.StrongConsistency = true
	strong := New(cfg, &fakeMem{lat: 50 * clock.Nanosecond}, zeroComm)
	strongEnd, _ := strong.RunStream(s, 0)

	// SC serialises on every store: ~500 x 50ns = 25us minimum. Weak
	// overlaps everything behind the store buffer.
	if strongEnd < clock.Time(25*clock.Microsecond) {
		t.Fatalf("strong consistency too fast: %v", strongEnd)
	}
	if weakEnd*4 > strongEnd {
		t.Fatalf("strong (%v) not clearly slower than weak (%v)", strongEnd, weakEnd)
	}
}

func TestRunAgainstRealHierarchy(t *testing.T) {
	h := mem.MustNew(mem.TableII())
	c := newCore(h, config.TableIV().Latency)
	var s trace.Stream
	for i := 0; i < 5000; i++ {
		s = append(s, trace.Inst{PC: uint64(i%128) * 4, Kind: isa.Load, Addr: uint64(i%64) * 64, Size: 8})
		s = append(s, trace.Inst{PC: uint64(i%128)*4 + 1, Kind: isa.ALU, Dep1: 1})
	}
	end, st := c.RunStream(s, 0)
	if end == 0 || st.Instructions != 10000 {
		t.Fatalf("run failed: end=%v st=%+v", end, st)
	}
	hs := h.Stats()
	if hs.Accesses[mem.CPU] != 5000 {
		t.Fatalf("hierarchy saw %d accesses, want 5000", hs.Accesses[mem.CPU])
	}
	// The 64-line working set fits L1: nearly everything hits after warm-up.
	if hs.L1Hits[mem.CPU] < 4800 {
		t.Fatalf("L1 hits %d, want ~4936", hs.L1Hits[mem.CPU])
	}
}

func TestStatsDuration(t *testing.T) {
	c := newCore(&fakeMem{}, nil)
	start := clock.Time(5 * clock.Microsecond)
	end, st := c.RunStream(alu(100), start)
	if st.Duration != end.Sub(start) {
		t.Fatalf("Duration %v != end-start %v", st.Duration, end.Sub(start))
	}
}

func TestEmptyStream(t *testing.T) {
	c := newCore(&fakeMem{}, nil)
	end, st := c.RunStream(nil, 42)
	if end != 42 || st.Instructions != 0 {
		t.Fatalf("empty run: end=%v st=%+v", end, st)
	}
}

func BenchmarkRunALU(b *testing.B) {
	c := newCore(&fakeMem{}, nil)
	s := alu(10000)
	b.ResetTimer()
	var now clock.Time
	for i := 0; i < b.N; i++ {
		now, _ = c.RunStream(s, now)
	}
}

func BenchmarkRunMixed(b *testing.B) {
	h := mem.MustNew(mem.TableII())
	c := newCore(h, config.TableIV().Latency)
	var s trace.Stream
	for i := 0; i < 10000; i++ {
		switch i % 5 {
		case 0:
			s = append(s, trace.Inst{PC: uint64(i), Kind: isa.Load, Addr: uint64(i%4096) * 16, Size: 8})
		case 1:
			s = append(s, trace.Inst{PC: uint64(i), Kind: isa.Branch, Taken: i%3 == 0})
		default:
			s = append(s, trace.Inst{PC: uint64(i), Kind: isa.ALU, Dep1: 1})
		}
	}
	b.ResetTimer()
	var now clock.Time
	for i := 0; i < b.N; i++ {
		now, _ = c.RunStream(s, now)
	}
}
