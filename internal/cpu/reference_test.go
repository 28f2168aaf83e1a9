package cpu

import (
	"math/rand"
	"testing"

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

// refExecution is the replay loop the bounded-ring StepUntil is diffed
// against: the same loop over completion and retire rings of refRing
// entries. It shares the core's configuration, predictor and memory.
type refExecution struct {
	c      *Core
	src    trace.Source
	buf    []trace.Inst
	comp   []clock.Time
	retire []clock.Time
	i      int
	bi, bn int

	start      clock.Time
	cur        clock.Time
	issued     int
	maxComp    clock.Time
	lastRetire clock.Time
	stats      Stats
}

func refBegin(c *Core, src trace.Source, at clock.Time) *refExecution {
	e := &refExecution{
		c: c, src: src, start: at, cur: at,
		buf:    make([]trace.Inst, srcBatch),
		comp:   make([]clock.Time, refRing),
		retire: make([]clock.Time, refRing),
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

func (e *refExecution) StepUntil(deadline clock.Time) {
	c := e.c
	for e.bi < e.bn && e.cur <= deadline {
		i, in := e.i, e.buf[e.bi]
		if e.issued >= c.cfg.IssueWidth {
			e.cur = e.cur.Add(c.cycle)
			e.issued = 0
		}
		if i >= c.cfg.ROBSize {
			head := e.retire[(i-c.cfg.ROBSize)%refRing]
			if e.cur < head {
				e.cur = head
				e.issued = 0
			}
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

		var done clock.Time
		switch {
		case in.Kind == isa.Branch:
			done = ready.Add(c.cycle)
			e.stats.Branches++
			correct := true
			if c.pred != nil {
				correct = c.pred.Update(in.PC, in.Taken)
			}
			if !correct {
				e.stats.Mispredicts++
				resume := done.Add(clock.Duration(c.cfg.MispredictPenalty) * c.cycle)
				if resume > e.cur {
					e.cur = resume
					e.issued = 0
				}
			}
		case in.Kind == isa.Load:
			e.stats.MemOps++
			done = c.memory.Access(mem.CPU, in.Addr, false, ready)
		case in.Kind == isa.Store:
			e.stats.MemOps++
			drain := c.memory.Access(mem.CPU, in.Addr, true, ready)
			if drain > e.maxComp {
				e.maxComp = drain
			}
			if c.cfg.StrongConsistency {
				done = drain
				if drain > e.cur {
					e.cur = drain
					e.issued = 0
				}
			} else {
				done = ready.Add(c.cycle)
			}
		case in.Kind.IsComm():
			e.stats.CommOps++
			d := c.comm(in.Kind, in.Size)
			e.stats.CommTime += d
			at := clock.Max(ready, e.maxComp)
			done = at.Add(d)
			e.cur = done
			e.issued = 0
		case in.Kind == isa.Push:
			e.stats.PushOps++
			done = c.memory.Push(mem.CPU, in.Addr, in.Size, mem.PushLevel(in.PushLevel), ready)
		case in.Kind == isa.Barrier:
			done = clock.Max(ready, e.maxComp).Add(c.cycle)
			e.cur = done
			e.issued = 0
		default:
			done = ready.Add(clock.Duration(in.Kind.ExecLatency()) * c.cycle)
		}

		slot := i % refRing
		e.comp[slot] = done
		if done > e.maxComp {
			e.maxComp = done
		}
		if done > e.lastRetire {
			e.lastRetire = done
		}
		e.retire[slot] = e.lastRetire
		e.issued++
		e.stats.Instructions++
		e.i++
		e.bi++
		if e.bi >= e.bn {
			e.bn = e.src.NextBatch(e.buf)
			e.bi = 0
		}
	}
}

// hashMem is a deterministic memory whose latency hashes the request:
// mostly a few hundred cycles, sometimes microseconds, now and then tens
// of microseconds, so completions land far behind the dispatch clock.
// It logs every call so two replays can be diffed request by request.
type hashMem struct{ log []clock.Time }

func (h *hashMem) lat(addr uint64, now clock.Time) clock.Time {
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
	h.log = append(h.log, now)
	return now.Add(d)
}

func (h *hashMem) Access(pu mem.PU, addr uint64, write bool, now clock.Time) clock.Time {
	return h.lat(addr, now)
}

func (h *hashMem) Push(pu mem.PU, addr uint64, size uint32, level mem.Level, now clock.Time) clock.Time {
	return h.lat(addr^uint64(size), now)
}

func hashComm(k isa.Kind, size uint32) clock.Duration {
	return clock.Duration(k)*clock.Nanosecond + clock.Duration(size)
}

// randomDep draws a dependency distance: often none or short, sometimes
// within a few of rob (where a bounded history is decided), anywhere in
// the uint16 range, or at its very top.
func randomDep(r *rand.Rand, rob int) uint16 {
	switch r.Intn(10) {
	case 0, 1, 2:
		return 0
	case 3, 4:
		return uint16(1 + r.Intn(8))
	case 5:
		return uint16(max(1, rob-8+r.Intn(16)))
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
func randomTrace(r *rand.Rand, n, rob int) trace.Stream {
	kinds := isa.AllKinds()
	s := make(trace.Stream, n)
	for i := range s {
		in := trace.Inst{PC: uint64(r.Intn(4096)) * 4, Dep1: randomDep(r, rob), Dep2: randomDep(r, rob)}
		switch p := r.Intn(100); {
		case p < 35:
			in.Kind = isa.ALU
		case p < 60:
			in.Kind, in.Addr, in.Size = isa.Load, uint64(r.Intn(1<<20))*8, 8
		case p < 75:
			in.Kind, in.Addr, in.Size = isa.Store, uint64(r.Intn(1<<20))*8, 8
		case p < 92:
			in.Kind, in.Taken = isa.Branch, r.Intn(3) == 0
		case p < 94:
			in.Kind, in.Addr, in.Size = isa.Push, uint64(r.Intn(1<<14))*64, uint32(1+r.Intn(4096))
			in.PushLevel = uint8(r.Intn(3))
		default:
			in.Kind, in.Size = kinds[r.Intn(len(kinds))], uint32(1+r.Intn(1<<16-1))
		}
		s[i] = in
	}
	return s
}

// TestBoundedRingsMatchReference diffs the bounded-ring replay loop
// against the 64K-ring reference over seeded random traces: dependency
// distances up to 65,535, varied ROB size and issue width, strong and
// weak consistency, with and without a predictor. Both are stepped
// through the same random deadlines, and Now, Done, the statistics and
// every memory request must agree after each step.
func TestBoundedRingsMatchReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	robs := []int{1, 2, 3, 16, 100, 127, 128, 129, 255, 256, 1000}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := config.BaselineCPU()
		cfg.ROBSize = robs[r.Intn(len(robs))]
		cfg.IssueWidth = 1 + r.Intn(6)
		cfg.StrongConsistency = r.Intn(2) == 0
		if r.Intn(4) == 0 {
			cfg.PredictorTableBits = 0
		}
		n := 1 + r.Intn(4000)
		if seed%3 == 0 {
			n = 70000 + r.Intn(60000)
		}
		s := randomTrace(r, n, cfg.ROBSize)

		gotMem, wantMem := &hashMem{}, &hashMem{}
		got := New(cfg, gotMem, hashComm).Begin(trace.NewCursor(s), 1000)
		want := refBegin(New(cfg, wantMem, hashComm), trace.NewCursor(s), 1000)
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
				t.Fatalf("seed %d (ROB %d, width %d, strong %v, %d insts) step %d: got now %v done %v %+v, want now %v done %v %+v",
					seed, cfg.ROBSize, cfg.IssueWidth, cfg.StrongConsistency, n, steps,
					got.Now(), got.Done(), got.stats, want.Now(), want.Done(), want.stats)
			}
		}
		gotEnd, gotSt := got.End()
		wantEnd, wantSt := want.End()
		if gotEnd != wantEnd || gotSt != wantSt {
			t.Fatalf("seed %d: End got %v %+v, want %v %+v", seed, gotEnd, gotSt, wantEnd, wantSt)
		}
		if len(gotMem.log) != len(wantMem.log) {
			t.Fatalf("seed %d: %d memory requests, want %d", seed, len(gotMem.log), len(wantMem.log))
		}
		for k := range gotMem.log {
			if gotMem.log[k] != wantMem.log[k] {
				t.Fatalf("seed %d: memory request %d at %v, want %v", seed, k, gotMem.log[k], wantMem.log[k])
			}
		}
	}
}
