// Package gpu models the baseline accelerator core of Table II: a
// 1.5 GHz in-order 8-wide SIMD core with no branch predictor ("stall on
// branch"), a hardware L1 reached through the shared hierarchy, and a
// 16 KB software-managed cache.
//
// The timing model is in-order single-issue with stall-on-use: memory
// operations are non-blocking until a dependent instruction needs their
// result (the trace's dependency distances), branches stall the front end
// until resolution, and SIMD memory operations coalesce consecutive lane
// addresses into cache-line requests.
package gpu

import (
	"heteromem/internal/arena"
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/isa"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
)

// Memory is the view of the memory system the core needs; *mem.Hierarchy
// implements it.
type Memory interface {
	Access(pu mem.PU, addr uint64, write bool, now clock.Time) clock.Time
	Push(pu mem.PU, addr uint64, size uint32, level mem.Level, now clock.Time) clock.Time
	Scratchpad() *cache.Scratchpad
}

// Stats summarises one Run.
type Stats struct {
	Instructions uint64
	Branches     uint64
	MemOps       uint64
	LineRequests uint64
	SWHits       uint64
	SWMisses     uint64
	CommOps      uint64
	PushOps      uint64
	CommTime     clock.Duration
	Duration     clock.Duration
}

// Core is a reusable in-order SIMD core instance.
type Core struct {
	cfg    config.CoreConfig
	dom    *clock.Domain
	cycle  clock.Duration
	memory Memory
	comm   config.CommCoster
	swLat  clock.Duration
	// Coalesce controls whether SIMD memory operations merge lane
	// accesses into unique cache-line requests (true, the default) or
	// issue one request per active lane (the ablation configuration).
	Coalesce bool

	// exec is the live Execution: Begin and Run reuse it, so a replay
	// allocates nothing and obs binds its statistics once.
	exec Execution
	// obs carries exec's statistics into the registry (gpu.*); the
	// replay loop bumps only the plain fields.
	obs      obs.Batch
	memLatPS *obs.Histogram

	// comp holds the completion times of the last len(comp)
	// instructions. It starts at ringMin entries and grows (see record)
	// only while a replay would drop an entry still in flight; a grown
	// ring, carved from arena, stays here for later replays.
	arena *arena.Arena
	comp  []clock.Time
	// srcBuf is the lookahead batch of the live Execution; it lives here
	// so starting a replay allocates nothing.
	srcBuf []trace.Inst
}

// Instrument binds the core's statistics (gpu.*) into the registry and
// registers its memory-latency histogram. A nil registry detaches them.
func (c *Core) Instrument(reg *obs.Registry) {
	c.obs = obs.Batch{}
	st := &c.exec.stats
	c.obs.Bind(reg, "gpu.instructions", &st.Instructions)
	c.obs.Bind(reg, "gpu.branches", &st.Branches)
	c.obs.Bind(reg, "gpu.memops", &st.MemOps)
	c.obs.Bind(reg, "gpu.line_requests", &st.LineRequests)
	c.obs.Bind(reg, "gpu.sw.hits", &st.SWHits)
	c.obs.Bind(reg, "gpu.sw.misses", &st.SWMisses)
	c.obs.Bind(reg, "gpu.commops", &st.CommOps)
	c.obs.Bind(reg, "gpu.pushops", &st.PushOps)
	c.obs.Bind(reg, "gpu.commtime_ps", (*uint64)(&st.CommTime))
	c.memLatPS = reg.Histogram("gpu.memlat_ps")
}

// ringMin and ringMax bound the completion ring. ringMax exceeds the
// largest uint16 dependency distance, so a ring that large never needs
// to keep more.
const (
	ringMin = 256
	ringMax = 1 << 16
)

// srcBatch is the lookahead batch size pulled from the trace source.
const srcBatch = 256

// LineBytes is the coalescing granularity, matching the hierarchy's
// 64-byte lines.
const LineBytes = 64

// New returns a core bound to a memory system, communication cost model,
// and software-managed-cache latency.
func New(cfg config.CoreConfig, memory Memory, comm config.CommCoster, swLat clock.Duration) *Core {
	return NewIn(nil, cfg, memory, comm, swLat)
}

// NewIn is New with the completion ring and trace lookahead buffer
// carved from the arena (nil falls back to the heap). A ring that grows
// mid-replay is carved from the arena too, so the core must run on the
// goroutine that owns the arena, and the arena may be Reset only once
// the core is dropped.
func NewIn(a *arena.Arena, cfg config.CoreConfig, memory Memory, comm config.CommCoster, swLat clock.Duration) *Core {
	if cfg.SIMDWidth <= 0 {
		cfg.SIMDWidth = 8
	}
	dom := cfg.Domain()
	return &Core{
		cfg:      cfg,
		dom:      dom,
		cycle:    dom.PeriodPS(),
		memory:   memory,
		comm:     comm,
		swLat:    swLat,
		Coalesce: true,
		arena:    a,
		comp:     arena.Make[clock.Time](a, ringMin),
		srcBuf:   arena.Make[trace.Inst](a, srcBatch),
	}
}

// Domain returns the core's clock domain.
func (c *Core) Domain() *clock.Domain { return c.dom }

// Execution is an in-progress replay of one instruction source,
// advanceable in bounded steps so the simulator can co-simulate the GPU
// with the CPU in time order. A core has one live Execution: Begin and
// Run restart it, so an Execution is valid until the core's next Begin
// or Run.
//
// Like the CPU's Execution, it keeps a lookahead batch pulled from the
// source (refilled the moment it drains) so Done is accurate the moment
// the last instruction executes, without a per-instruction source call.
type Execution struct {
	c   *Core
	src trace.Source
	i   int
	bi  int // next instruction to execute, in c.srcBuf
	bn  int // instructions buffered in c.srcBuf

	start   clock.Time
	cur     clock.Time
	maxComp clock.Time
	stats   Stats
	// memLat accumulates memory-latency observations between flushes; it
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
// completion time of the last instruction (with memory drained) and
// statistics.
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

// Now returns the in-order issue clock.
func (e *Execution) Now() clock.Time { return e.cur }

// StepUntil executes instructions while the issue clock is at or before
// deadline (and the source has instructions left).
func (e *Execution) StepUntil(deadline clock.Time) {
	c := e.c
	for e.bi < e.bn && e.cur <= deadline {
		i, in := e.i, c.srcBuf[e.bi]
		e.i++
		e.bi++
		if e.bi >= e.bn {
			e.bn = e.src.NextBatch(c.srcBuf)
			e.bi = 0
		}
		// Dependencies pointing before the stream start are ignored: the
		// producer ran in an earlier phase and has long completed. So are
		// those at d > len(comp), which the ring has dropped: record drops
		// an entry only once it completes no later than the issue clock,
		// and the clock never goes back. Slot i still holds i-len(comp)
		// until record overwrites it, so d == len(comp) is read.
		ready := e.cur
		ring := len(c.comp)
		if d := int(in.Dep1); d != 0 && d <= i && d <= ring {
			if t := c.comp[(i-d)&(ring-1)]; t > ready {
				ready = t
			}
		}
		if d := int(in.Dep2); d != 0 && d <= i && d <= ring {
			if t := c.comp[(i-d)&(ring-1)]; t > ready {
				ready = t
			}
		}
		issueAt := clock.Max(e.cur, ready)

		var done clock.Time
		switch {
		case in.Kind == isa.Branch:
			e.stats.Branches++
			done = issueAt.Add(c.cycle)
			// No predictor: the front end stalls until the branch
			// resolves, plus the refill bubble.
			e.cur = done.Add(clock.Duration(c.cfg.BranchStall) * c.cycle)
			e.record(i, done)
			e.stats.Instructions++
			continue
		case in.Kind.IsMem():
			e.stats.MemOps++
			done = c.accessMem(in, issueAt, &e.stats)
			if c.memLatPS != nil {
				e.memLat.Observe(uint64(done.Sub(issueAt)))
			}
		case in.Kind.IsSoftwareCache():
			if c.memory.Scratchpad().Resident(in.Addr) {
				e.stats.SWHits++
				done = issueAt.Add(c.swLat)
			} else {
				// Data was never placed: the access falls through to the
				// hardware hierarchy (and is counted so the workload
				// author can find the placement bug).
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

		// In-order single issue: the next instruction issues no earlier
		// than one cycle after this one, but does not wait for completion
		// (stall-on-use via the dependency distances).
		e.cur = issueAt.Add(c.cycle)
		e.record(i, done)
		e.stats.Instructions++
	}
}

// End returns the completion time (memory drained) and statistics. The
// execution must be Done.
func (e *Execution) End() (clock.Time, Stats) {
	if !e.Done() {
		panic("gpu: End called on unfinished execution")
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

// record notes instruction i's completion time once e.cur has moved to
// the issue clock after i. Writing slot i drops instruction
// i-len(comp). That is exact while the dropped completion is no later
// than e.cur, since every later instruction issues at or after it;
// otherwise the ring doubles first, up to ringMax.
func (e *Execution) record(i int, done clock.Time) {
	c := e.c
	if ring := len(c.comp); i >= ring && c.comp[i&(ring-1)] > e.cur && ring < ringMax {
		c.grow(i)
	}
	c.comp[i&(len(c.comp)-1)] = done
	if done > e.maxComp {
		e.maxComp = done
	}
}

// grow doubles the completion ring before instruction i is written,
// moving the previous len(comp) instructions' entries to their new
// slots.
func (c *Core) grow(i int) {
	old := c.comp
	ring := arena.Make[clock.Time](c.arena, 2*len(old))
	for k := i - len(old); k < i; k++ {
		ring[k&(len(ring)-1)] = old[k&(len(old)-1)]
	}
	c.comp = ring
}

// accessMem times a (possibly SIMD) memory operation issued at issueAt.
func (c *Core) accessMem(in trace.Inst, issueAt clock.Time, st *Stats) clock.Time {
	write := in.Kind.IsStore()
	if !in.Kind.IsSIMD() {
		st.LineRequests++
		return c.memory.Access(mem.GPU, in.Addr, write, issueAt)
	}
	lanes := in.ActiveLanes()
	if lanes > c.cfg.SIMDWidth {
		lanes = c.cfg.SIMDWidth
	}
	if c.Coalesce {
		// Consecutive lanes touch [Addr, Addr+Size): request each unique
		// line once.
		first := in.Addr &^ uint64(LineBytes-1)
		last := (in.Addr + uint64(in.Size) - 1) &^ uint64(LineBytes-1)
		var done clock.Time
		for line := first; ; line += LineBytes {
			st.LineRequests++
			if d := c.memory.Access(mem.GPU, line, write, issueAt); d > done {
				done = d
			}
			if line == last {
				break
			}
		}
		return done
	}
	// Uncoalesced: one memory transaction per active lane, issued at one
	// per cycle — without a coalescer the load/store unit serialises the
	// lanes even when they hit the same line.
	laneBytes := uint64(in.Size) / uint64(lanes)
	if laneBytes == 0 {
		laneBytes = 1
	}
	var done clock.Time
	for l := 0; l < lanes; l++ {
		st.LineRequests++
		addr := in.Addr + uint64(l)*laneBytes
		at := issueAt.Add(clock.Duration(l) * c.cycle)
		if d := c.memory.Access(mem.GPU, addr, write, at); d > done {
			done = d
		}
	}
	return done
}
