package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/trace"
)

// refRing is the reference loop's ring size: it covers every uint16
// dependency distance, so the reference never has to reason about which
// producers may be dropped.
const refRing = 1 << 16

// refExecution is the replay loop the growable-ring StepUntil is diffed
// against: the same loop over a completion ring of refRing entries. It
// shares the core's configuration, memory and coalescer.
type refExecution struct {
	c      *Core
	src    trace.Source
	buf    []trace.Inst
	comp   []clock.Time
	i      int
	bi, bn int

	start   clock.Time
	cur     clock.Time
	maxComp clock.Time
	stats   Stats
}

func refBegin(c *Core, src trace.Source, at clock.Time) *refExecution {
	e := &refExecution{
		c: c, src: src, start: at, cur: at,
		buf:  make([]trace.Inst, srcBatch),
		comp: make([]clock.Time, refRing),
	}
	e.bn = src.NextBatch(e.buf)
	return e
}

func (e *refExecution) Done() bool      { return e.bi >= e.bn }
func (e *refExecution) Now() clock.Time { return e.cur }

func (e *refExecution) End() (clock.Time, Stats) {
	end := clock.Max(e.cur, e.maxComp)
	st := e.stats
	st.Duration = end.Sub(e.start)
	return end, st
}

func (e *refExecution) record(i int, done clock.Time) {
	e.comp[i%refRing] = done
	if done > e.maxComp {
		e.maxComp = done
	}
}

func (e *refExecution) StepUntil(deadline clock.Time) {
	c := e.c
	for e.bi < e.bn && e.cur <= deadline {
		i, in := e.i, e.buf[e.bi]
		e.i++
		e.bi++
		if e.bi >= e.bn {
			e.bn = e.src.NextBatch(e.buf)
			e.bi = 0
		}
		ready := e.cur
		if d := int(in.Dep1); d != 0 && d <= i {
			if t := e.comp[(i-d)%refRing]; t > ready {
				ready = t
			}
		}
		if d := int(in.Dep2); d != 0 && d <= i {
			if t := e.comp[(i-d)%refRing]; t > ready {
				ready = t
			}
		}
		issueAt := clock.Max(e.cur, ready)

		var done clock.Time
		switch {
		case in.Kind == isa.Branch:
			e.stats.Branches++
			done = issueAt.Add(c.cycle)
			e.cur = done.Add(clock.Duration(c.cfg.BranchStall) * c.cycle)
			e.record(i, done)
			e.stats.Instructions++
			continue
		case in.Kind.IsMem():
			e.stats.MemOps++
			done = c.accessMem(in, issueAt, &e.stats)
		case in.Kind.IsSoftwareCache():
			if c.memory.Scratchpad().Resident(in.Addr) {
				e.stats.SWHits++
				done = issueAt.Add(c.swLat)
			} else {
				e.stats.SWMisses++
				done = c.memory.Access(mem.GPU, in.Addr, in.Kind == isa.SWStore, issueAt)
			}
		case in.Kind.IsComm():
			e.stats.CommOps++
			d := c.comm(in.Kind, in.Size)
			e.stats.CommTime += d
			at := clock.Max(issueAt, e.maxComp)
			done = at.Add(d)
			e.cur = done
			e.record(i, done)
			e.stats.Instructions++
			continue
		case in.Kind == isa.Push:
			e.stats.PushOps++
			done = c.memory.Push(mem.GPU, in.Addr, in.Size, mem.PushLevel(in.PushLevel), issueAt)
		case in.Kind == isa.Barrier:
			done = clock.Max(issueAt, e.maxComp).Add(c.cycle)
			e.cur = done
			e.record(i, done)
			e.stats.Instructions++
			continue
		default:
			done = issueAt.Add(clock.Duration(in.Kind.ExecLatency()) * c.cycle)
		}
		e.cur = issueAt.Add(c.cycle)
		e.record(i, done)
		e.stats.Instructions++
	}
}

// hashMem is a deterministic memory whose latency hashes the request:
// mostly tens of cycles, sometimes microseconds, now and then tens of
// microseconds, so completions land far behind the issue clock. It has
// a real scratchpad and logs every call so two replays can be diffed
// request by request.
type hashMem struct {
	log []clock.Time
	sp  *cache.Scratchpad
	// slow, when nonzero, is the one address that always takes slowLat.
	slow    uint64
	slowLat clock.Duration
}

func newHashMem() *hashMem { return &hashMem{sp: cache.NewScratchpad("sw", 16<<10)} }

func (h *hashMem) lat(addr uint64, now clock.Time) clock.Time {
	h.log = append(h.log, now)
	if h.slow != 0 && addr == h.slow {
		return now.Add(h.slowLat)
	}
	x := addr*0x9E3779B97F4A7C15 ^ uint64(now)
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	var d clock.Duration
	switch x % 64 {
	case 0:
		d = clock.Duration(x>>8%50) * clock.Microsecond
	case 1, 2, 3:
		d = clock.Duration(x>>8%3000) * clock.Nanosecond
	default:
		d = clock.Duration(x>>8%100) * clock.Nanosecond
	}
	return now.Add(d)
}

func (h *hashMem) Access(pu mem.PU, addr uint64, write bool, now clock.Time) clock.Time {
	return h.lat(addr, now)
}

func (h *hashMem) Push(pu mem.PU, addr uint64, size uint32, level mem.Level, now clock.Time) clock.Time {
	if level == mem.LevelSoftware {
		if h.sp.Place(addr, uint64(size)) != nil {
			h.sp.Clear()
		}
	}
	return h.lat(addr^uint64(size), now)
}

func (h *hashMem) Scratchpad() *cache.Scratchpad { return h.sp }

func hashComm(k isa.Kind, size uint32) clock.Duration {
	return clock.Duration(k)*clock.Nanosecond + clock.Duration(size)
}

// randomDep draws a dependency distance: often none or short, sometimes
// within a few of a ring size the core can grow through, anywhere in the
// uint16 range, or at its very top.
func randomDep(r *rand.Rand) uint16 {
	switch r.Intn(10) {
	case 0, 1, 2:
		return 0
	case 3, 4:
		return uint16(1 + r.Intn(8))
	case 5:
		return uint16(ringMin<<r.Intn(6) - 8 + r.Intn(16))
	case 6:
		return uint16(1 + r.Intn(600))
	case 7, 8:
		return uint16(1 + r.Intn(1<<16-1))
	default:
		return uint16(1<<16 - 1 - r.Intn(400))
	}
}

// randomTrace is n instructions of every kind the core handles, weighted
// towards the common ones.
func randomTrace(r *rand.Rand, n int) trace.Stream {
	kinds := isa.AllKinds()
	s := make(trace.Stream, n)
	for i := range s {
		in := trace.Inst{PC: uint64(r.Intn(4096)) * 4, Dep1: randomDep(r), Dep2: randomDep(r)}
		switch p := r.Intn(100); {
		case p < 25:
			in.Kind = isa.SIMDALU
		case p < 40:
			in.Kind = [...]isa.Kind{isa.Load, isa.Store}[r.Intn(2)]
			in.Addr, in.Size = uint64(r.Intn(1<<20))*4, 4
		case p < 65:
			in.Kind = [...]isa.Kind{isa.SIMDLoad, isa.SIMDStore}[r.Intn(2)]
			in.Addr, in.Size = uint64(r.Intn(1<<20))*4, uint32(4+4*r.Intn(32))
			in.Lanes = uint8(r.Intn(9))
		case p < 75:
			in.Kind, in.Addr, in.Size = [...]isa.Kind{isa.SWLoad, isa.SWStore}[r.Intn(2)], uint64(r.Intn(1<<15))*4, 4
		case p < 90:
			in.Kind, in.Taken = isa.Branch, r.Intn(3) == 0
		case p < 93:
			in.Kind, in.Addr, in.Size = isa.Push, uint64(r.Intn(1<<13))*64, uint32(1+r.Intn(4096))
			in.PushLevel = uint8(r.Intn(3))
		default:
			in.Kind, in.Size = kinds[r.Intn(len(kinds))], uint32(1+r.Intn(1<<16-1))
		}
		s[i] = in
	}
	return s
}

// diffReplay steps the core and the reference through the same random
// deadlines over s and fails unless Now, Done, the statistics, every
// memory request and the end agree after each step.
func diffReplay(t *testing.T, name string, r *rand.Rand, c, ref *Core, gotMem, wantMem *hashMem, s trace.Stream) {
	t.Helper()
	got := c.Begin(trace.NewCursor(s), 1000)
	want := refBegin(ref, trace.NewCursor(s), 1000)
	for steps := 0; !want.Done(); steps++ {
		var deadline clock.Time
		switch r.Intn(3) {
		case 0:
			deadline = want.Now()
		case 1:
			deadline = want.Now().Add(clock.Duration(r.Intn(200)) * clock.Nanosecond)
		default:
			deadline = want.Now().Add(clock.Duration(r.Intn(100)) * clock.Microsecond)
		}
		got.StepUntil(deadline)
		want.StepUntil(deadline)
		if got.Now() != want.Now() || got.Done() != want.Done() || got.stats != want.stats {
			t.Fatalf("%s step %d: got now %v done %v %+v, want now %v done %v %+v", name, steps,
				got.Now(), got.Done(), got.stats, want.Now(), want.Done(), want.stats)
		}
	}
	gotEnd, gotSt := got.End()
	wantEnd, wantSt := want.End()
	if gotEnd != wantEnd || gotSt != wantSt {
		t.Fatalf("%s: End got %v %+v, want %v %+v", name, gotEnd, gotSt, wantEnd, wantSt)
	}
	if len(gotMem.log) != len(wantMem.log) {
		t.Fatalf("%s: %d memory requests, want %d", name, len(gotMem.log), len(wantMem.log))
	}
	for k := range gotMem.log {
		if gotMem.log[k] != wantMem.log[k] {
			t.Fatalf("%s: memory request %d at %v, want %v", name, k, gotMem.log[k], wantMem.log[k])
		}
	}
}

// TestGrowableRingMatchesReference diffs the growable-ring replay loop
// against the 64K-ring reference over seeded random traces: dependency
// distances up to 65,535, coalesced and uncoalesced SIMD memory, varied
// SIMD width. Each core replays two traces back to back, so the second
// replay reuses whatever ring the first one grew.
func TestGrowableRingMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := config.BaselineGPU()
		cfg.SIMDWidth = 1 + r.Intn(8)
		gotMem, wantMem := newHashMem(), newHashMem()
		c := New(cfg, gotMem, hashComm, 3*clock.Nanosecond)
		ref := New(cfg, wantMem, hashComm, 3*clock.Nanosecond)
		c.Coalesce = r.Intn(2) == 0
		ref.Coalesce = c.Coalesce
		for run := 0; run < 2; run++ {
			n := 1 + r.Intn(4000)
			if seed%3 == 0 {
				n = 70000 + r.Intn(60000)
			}
			s := randomTrace(r, n)
			diffReplay(t, fmt.Sprintf("seed %d run %d (coalesce %v, %d insts)", seed, run, c.Coalesce, n), r, c, ref, gotMem, wantMem, s)
		}
	}
}

// TestRingGrowsForInFlightProducer pins the ring on the cases random
// traces rarely hit, where a slow load is still in flight when its slot
// comes up for reuse: a consumer at exactly the starting ring size (read
// before the slot is overwritten), at a distance that forces one growth
// and lands on the grown size, at 1,001 (two growths), and a branch
// consumer at the ring size whose producer completes after the branch
// would otherwise issue but before the issue clock after it, so the slot
// could be dropped without growth. In each case the replay must match
// the reference and the ring must still hold the producer.
func TestRingGrowsForInFlightProducer(t *testing.T) {
	const slow = 0x4000
	cycle := New(config.BaselineGPU(), newHashMem(), hashComm, 0).cycle
	cases := []struct {
		name     string
		dist     int
		consumer isa.Kind
		lat      clock.Duration
	}{
		{"ring size", ringMin, isa.SIMDALU, 50 * clock.Microsecond},
		{"grown ring size", 2 * ringMin, isa.SIMDALU, 50 * clock.Microsecond},
		{"distance 1,001", 1001, isa.SIMDALU, 50 * clock.Microsecond},
		{"branch at ring size", ringMin, isa.Branch, (ringMin + 1) * cycle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := trace.Stream{{Kind: isa.Load, Addr: slow, Size: 4}}
			for i := 1; i < tc.dist; i++ {
				s = append(s, trace.Inst{Kind: isa.SIMDALU})
			}
			// A load that depends on the consumer logs the consumer's
			// completion as a memory request time.
			s = append(s, trace.Inst{Kind: tc.consumer, Dep1: uint16(tc.dist)},
				trace.Inst{Kind: isa.Load, Addr: 0x8000, Size: 4, Dep1: 1})

			gotMem, wantMem := newHashMem(), newHashMem()
			gotMem.slow, wantMem.slow = slow, slow
			gotMem.slowLat, wantMem.slowLat = tc.lat, tc.lat
			cfg := config.BaselineGPU()
			c := New(cfg, gotMem, hashComm, 3*clock.Nanosecond)
			ref := New(cfg, wantMem, hashComm, 3*clock.Nanosecond)
			diffReplay(t, tc.name, rand.New(rand.NewSource(1)), c, ref, gotMem, wantMem, s)

			if len(c.comp) < tc.dist {
				t.Errorf("%s: ring holds %d entries after a producer %d back stayed in flight", tc.name, len(c.comp), tc.dist)
			}
			if last := gotMem.log[len(gotMem.log)-1]; last < clock.Time(tc.lat) {
				t.Errorf("%s: consumer's dependant issued at %v, before its producer completed (%v)", tc.name, last, tc.lat)
			}
		})
	}
}
