// Package cpu models the baseline general-purpose core of Table II: a
// 3.5 GHz out-of-order core with a gshare branch predictor, replaying
// dynamic instruction traces against the memory hierarchy.
//
// The timing model is the standard trace-driven out-of-order
// approximation: instructions dispatch in program order limited by issue
// width and reorder-buffer occupancy, begin execution when their trace
// dependencies have completed, and complete out of order. Branch
// mispredictions stall dispatch for the refill penalty; communication API
// instructions (Table IV) serialise the core, as a blocking library call
// does.
package cpu

import (
	"math/bits"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/trace"

	"heteromem/internal/bpred"
)

// Memory is the view of the memory system the core needs. *mem.Hierarchy
// implements it; tests may substitute fixed-latency fakes.
type Memory interface {
	Access(pu mem.PU, addr uint64, write bool, now clock.Time) clock.Time
	Push(pu mem.PU, addr uint64, size uint32, level mem.Level, now clock.Time) clock.Time
}

// Stats summarises one Run.
type Stats struct {
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64
	MemOps       uint64
	CommOps      uint64
	PushOps      uint64
	// CommTime is the total time spent inside communication instructions;
	// the harness subtracts it from phase time to build the Figure 5
	// breakdown.
	CommTime clock.Duration
	// Duration is the wall time of the run (end - start).
	Duration clock.Duration
}

// Core is a reusable out-of-order core instance.
type Core struct {
	cfg    config.CoreConfig
	dom    *clock.Domain
	cycle  clock.Duration
	pred   *bpred.Gshare
	memory Memory
	comm   config.CommCoster

	// exec is the live Execution: Begin and Run reuse it, so a replay
	// allocates nothing and obs binds its statistics once.
	exec Execution
	// obs carries exec's statistics into the registry (cpu.*); the
	// replay loop bumps only the plain fields.
	obs      obs.Batch
	memLatPS *obs.Histogram

	// comp and retire hold the completion and running retire times of the
	// last len(comp) instructions, a power of two above the ROB size: no
	// older producer can delay a dispatch (see StepUntil), so a deeper
	// history would hold nothing the timing uses.
	comp   []clock.Time
	retire []clock.Time
	// srcBuf is the lookahead batch of the live Execution; it lives here
	// so starting a replay allocates nothing.
	srcBuf []trace.Inst
}

// Instrument binds the core's statistics (cpu.*) into the registry and
// registers its load-latency histogram. A nil registry detaches them.
func (c *Core) Instrument(reg *obs.Registry) {
	c.obs = obs.Batch{}
	st := &c.exec.stats
	c.obs.Bind(reg, "cpu.instructions", &st.Instructions)
	c.obs.Bind(reg, "cpu.branches", &st.Branches)
	c.obs.Bind(reg, "cpu.mispredicts", &st.Mispredicts)
	c.obs.Bind(reg, "cpu.memops", &st.MemOps)
	c.obs.Bind(reg, "cpu.commops", &st.CommOps)
	c.obs.Bind(reg, "cpu.pushops", &st.PushOps)
	c.obs.Bind(reg, "cpu.commtime_ps", (*uint64)(&st.CommTime))
	c.memLatPS = reg.Histogram("cpu.memlat_ps")
}

// srcBatch is the lookahead batch size pulled from the trace source.
const srcBatch = 256

// New returns a core with the given configuration bound to a memory
// system and communication cost model.
func New(cfg config.CoreConfig, memory Memory, comm config.CommCoster) *Core {
	return NewIn(nil, cfg, memory, comm)
}

// NewIn is New with the completion rings, trace lookahead buffer and
// branch-predictor table carved from the arena (nil falls back to the
// heap); the core keeps no reference to the arena.
func NewIn(a *arena.Arena, cfg config.CoreConfig, memory Memory, comm config.CommCoster) *Core {
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 1
	}
	if cfg.ROBSize <= 0 {
		cfg.ROBSize = 1
	}
	dom := cfg.Domain()
	ring := 1 << bits.Len(uint(cfg.ROBSize))
	c := &Core{
		cfg:    cfg,
		dom:    dom,
		cycle:  dom.PeriodPS(),
		memory: memory,
		comm:   comm,
		comp:   arena.Make[clock.Time](a, ring),
		retire: arena.Make[clock.Time](a, ring),
		srcBuf: arena.Make[trace.Inst](a, srcBatch),
	}
	if cfg.PredictorTableBits > 0 {
		c.pred = bpred.NewGshareIn(a, cfg.PredictorTableBits, cfg.PredictorHistoryBits)
	}
	return c
}

// Domain returns the core's clock domain.
func (c *Core) Domain() *clock.Domain { return c.dom }

// Execution is an in-progress replay of one instruction source. It lets
// the simulator co-simulate two cores by alternately advancing whichever
// is behind in simulated time, so their memory traffic interleaves on
// shared resources in time order. A core has one live Execution: Begin
// and Run restart it, so an Execution is valid until the core's next
// Begin or Run.
//
// The execution keeps a lookahead batch pulled from the source (refilled
// the moment it drains), so Done is accurate the moment the last
// instruction executes (the co-simulation loop in internal/sim depends on
// that) and pausing at a StepUntil deadline never loses a record. Pulling
// in batches keeps the per-instruction source call out of the replay
// loop; it does not change when instructions execute.
type Execution struct {
	c   *Core
	src trace.Source
	i   int
	bi  int // next instruction to execute, in c.srcBuf
	bn  int // instructions buffered in c.srcBuf

	start      clock.Time
	cur        clock.Time // dispatch-cycle clock
	issued     int        // instructions dispatched this cycle
	maxComp    clock.Time // latest completion seen (for barriers/drain)
	lastRetire clock.Time
	stats      Stats
	// memLat accumulates load-latency observations between flushes; it
	// only fills when a latency histogram is registered.
	memLat obs.HistAccum
}

// Begin starts replaying the source at time at, ending the core's
// previous Execution. A nil source is an empty execution.
func (c *Core) Begin(src trace.Source, at clock.Time) *Execution {
	c.exec = Execution{c: c, src: src, start: at, cur: at}
	c.obs.Rebase()
	if src != nil {
		c.exec.bn = src.NextBatch(c.srcBuf)
	}
	return &c.exec
}

// Run replays the source starting at start to completion and returns the
// completion time of the last instruction (including drained stores) and
// run statistics. Run may be called repeatedly; predictor state persists
// across calls (warm predictor), ring state does not need clearing
// because every slot is written before it is read within a run.
func (c *Core) Run(src trace.Source, start clock.Time) (clock.Time, Stats) {
	e := c.Begin(src, start)
	e.StepUntil(clock.Time(^uint64(0)))
	return e.End()
}

// RunStream is Run over an in-memory stream.
func (c *Core) RunStream(s trace.Stream, start clock.Time) (clock.Time, Stats) {
	cur := trace.Cursor{}
	return c.Run(cur.Bind(s), start)
}

// Done reports whether every instruction has executed.
func (e *Execution) Done() bool { return e.bi >= e.bn }

// Now returns the dispatch clock — where the front end currently is.
func (e *Execution) Now() clock.Time { return e.cur }

// StepUntil executes instructions while the dispatch clock is at or
// before deadline (and the source has instructions left). It always makes
// progress when called with deadline >= Now().
func (e *Execution) StepUntil(deadline clock.Time) {
	c := e.c
	mask := len(c.comp) - 1
	for e.bi < e.bn && e.cur <= deadline {
		i, in := e.i, c.srcBuf[e.bi]
		if e.issued >= c.cfg.IssueWidth {
			e.cur = e.cur.Add(c.cycle)
			e.issued = 0
		}
		// Reorder-buffer occupancy: instruction i cannot dispatch before
		// instruction i-ROB has retired.
		if i >= c.cfg.ROBSize {
			head := c.retire[(i-c.cfg.ROBSize)&mask]
			if e.cur < head {
				e.cur = head
				e.issued = 0
			}
		}
		// Dependencies pointing before the stream start are ignored: the
		// producer ran in an earlier phase and has long completed. So are
		// those at d > mask, past the ring: len(comp) > ROB, and
		// retirement is in order, so retire[i-ROB] is the latest
		// completion of every instruction up to i-ROB and the dispatch
		// clock is already at or past it. Any producer at d >= ROB thus
		// has comp[i-d] <= cur <= ready and cannot delay i. (For i < ROB,
		// such a d exceeds i and is ignored anyway.)
		ready := e.cur
		if d := int(in.Dep1); d != 0 && d <= i && d <= mask {
			if t := c.comp[(i-d)&mask]; t > ready {
				ready = t
			}
		}
		if d := int(in.Dep2); d != 0 && d <= i && d <= mask {
			if t := c.comp[(i-d)&mask]; t > ready {
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
			if c.memLatPS != nil {
				e.memLat.Observe(uint64(done.Sub(ready)))
			}
		case in.Kind == isa.Store:
			e.stats.MemOps++
			drain := c.memory.Access(mem.CPU, in.Addr, true, ready)
			if drain > e.maxComp {
				e.maxComp = drain
			}
			if c.cfg.StrongConsistency {
				// Sequential consistency: the store must be globally
				// performed before anything younger proceeds.
				done = drain
				if drain > e.cur {
					e.cur = drain
					e.issued = 0
				}
			} else {
				// Weak consistency: the store buffer absorbs it; only
				// barriers wait for the drain.
				done = ready.Add(c.cycle)
			}
		case in.Kind.IsComm():
			e.stats.CommOps++
			d := c.comm(in.Kind, in.Size)
			e.stats.CommTime += d
			// A blocking API call serialises the core: it begins after all
			// outstanding work and stalls dispatch until it returns.
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
			lat := in.Kind.ExecLatency()
			done = ready.Add(clock.Duration(lat) * c.cycle)
		}

		slot := i & mask
		c.comp[slot] = done
		if done > e.maxComp {
			e.maxComp = done
		}
		if done > e.lastRetire {
			e.lastRetire = done
		}
		c.retire[slot] = e.lastRetire
		e.issued++
		e.stats.Instructions++
		e.i++
		e.bi++
		if e.bi >= e.bn {
			e.bn = e.src.NextBatch(c.srcBuf)
			e.bi = 0
		}
	}
}

// End returns the completion time (all work drained) and the run's
// statistics. The execution must be Done.
func (e *Execution) End() (clock.Time, Stats) {
	if !e.Done() {
		panic("cpu: End called on unfinished execution")
	}
	e.c.FlushObs()
	end := clock.Max(e.cur, e.maxComp)
	st := e.stats
	st.Duration = end.Sub(e.start)
	return end, st
}

// FlushObs carries the live Execution's statistics accumulated since the
// previous flush into the registry. The simulator calls it before every
// interval sample and End flushes the tail, so registry totals match the
// returned statistics exactly. A no-op on an uninstrumented core.
func (c *Core) FlushObs() {
	c.obs.Flush()
	c.memLatPS.Merge(&c.exec.memLat)
}
