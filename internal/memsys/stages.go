package memsys

import (
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/coherence"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// Counts are the per-hierarchy event counters the stages bump on the
// hot path: plain fields with no instrument indirection, mirrored into
// the obs registry in batches (Env.FlushObs).
type Counts struct {
	L1Hits       [NumPUs]uint64
	L2Hits       uint64 // CPU only
	L3Hits       [NumPUs]uint64
	DRAMFills    [NumPUs]uint64
	Writebacks   uint64
	CoherenceOps uint64
}

// Env is the state shared by every stage of one hierarchy: the event
// counters the stages bump and the observability instruments behind
// them. Stages hold a pointer to their hierarchy's Env, so re-wiring
// the instruments (mem.Hierarchy.Instrument) reaches every stage.
type Env struct {
	Counts

	Obs EnvObs
	// flushed is the counter snapshot at the last FlushObs; instruments
	// advance by the delta.
	flushed Counts
}

// EnvObs bundles the optional observability instruments. Nil counters
// are no-ops (obs instruments are nil-safe); the MSHR gauges are
// nil-checked explicitly because updating them walks the MSHR file.
type EnvObs struct {
	L1Hits       [NumPUs]*obs.Counter
	L2Hits       *obs.Counter
	L3Hits       [NumPUs]*obs.Counter
	DRAMFills    [NumPUs]*obs.Counter
	Writebacks   *obs.Counter
	CoherenceOps *obs.Counter
	MSHROut      [NumPUs]*obs.Gauge
}

// Reset zeroes the event counters and the flush baseline (the
// instruments are left wired).
func (e *Env) Reset() {
	obsSaved := e.Obs
	*e = Env{Obs: obsSaved}
}

// MarkFlushed aligns the flush baseline with the current counters so a
// freshly attached registry observes only subsequent events, matching
// per-event bumping semantics.
func (e *Env) MarkFlushed() { e.flushed = e.Counts }

// FlushObs pushes counter growth since the previous flush into the
// registered instruments. The hierarchy calls it at phase boundaries,
// so registry totals and interval samples match per-event bumping
// exactly while the access hot path stays instrument-free.
func (e *Env) FlushObs() {
	for p := PU(0); p < NumPUs; p++ {
		e.Obs.L1Hits[p].Add(e.L1Hits[p] - e.flushed.L1Hits[p])
		e.Obs.L3Hits[p].Add(e.L3Hits[p] - e.flushed.L3Hits[p])
		e.Obs.DRAMFills[p].Add(e.DRAMFills[p] - e.flushed.DRAMFills[p])
	}
	e.Obs.L2Hits.Add(e.L2Hits - e.flushed.L2Hits)
	e.Obs.Writebacks.Add(e.Writebacks - e.flushed.Writebacks)
	e.Obs.CoherenceOps.Add(e.CoherenceOps - e.flushed.CoherenceOps)
	e.flushed = e.Counts
}

// writeback counts one dirty-line writeback.
func (e *Env) writeback() {
	e.Writebacks++
}

// PrivateStage is a PU's private cache level(s): the first-level data
// cache and, on the CPU, the private L2. A hit completes the request;
// a write hit additionally pays the coherence fee for upgrading the
// line. The stage also installs lines on behalf of CommitStage (Fill).
type PrivateStage struct {
	PU        PU
	L1        *cache.Cache
	L1Lat     clock.Duration
	L2        *cache.Cache // nil when the PU has no private second level
	L2Lat     clock.Duration
	Coherence *CoherenceStage
	Env       *Env
}

// Process looks the address up in the private levels, charging each
// level's latency on the way down.
func (s *PrivateStage) Process(r *Request) Verdict {
	r.Now = r.Now.Add(s.L1Lat)
	if s.L1.Lookup(r.Addr, r.Write) {
		r.Flags |= FlagL1Hit
		s.Env.L1Hits[s.PU]++
		if r.Write {
			s.Coherence.Process(r)
		}
		return Done
	}
	return s.ProcessMissedL1(r)
}

// ProcessMissedL1 continues a request whose first-level lookup already
// missed (the hierarchy's fast path performs that lookup itself): the
// CPU consults its private L2; PUs without a second level pass the
// request on. r.Now must already include the L1 latency.
func (s *PrivateStage) ProcessMissedL1(r *Request) Verdict {
	if s.L2 == nil {
		return Next
	}
	r.Now = r.Now.Add(s.L2Lat)
	if s.L2.Lookup(r.Addr, r.Write) {
		r.Flags |= FlagL2Hit
		s.Env.L2Hits++
		r.L1Way = int8(s.fillInto(s.L1, r.Addr, r.Write))
		return Done
	}
	return Next
}

// Fill installs the line into the PU's private levels after a shared
// fill, notifying the directory when a line leaves the PU's domain
// entirely. It returns the L1 way the line landed in (-1 on bypass) so
// the caller can seed way memoizations.
func (s *PrivateStage) Fill(addr uint64, write bool) int {
	if s.L2 != nil {
		ev := s.L2.Fill(addr, false, false)
		s.noteEviction(ev, s.L1)
		return s.fillInto(s.L1, addr, write)
	}
	ev, way := s.L1.FillWay(addr, false, write)
	s.noteEviction(ev, nil)
	return way
}

// fillInto fills a private cache, absorbing the eviction (private-level
// writebacks land in the level below, whose traffic the shared path
// already dominates; we count them only). Returns the way filled.
func (s *PrivateStage) fillInto(c *cache.Cache, addr uint64, dirty bool) int {
	ev, way := c.FillWay(addr, false, dirty)
	if ev.Valid && ev.Dirty {
		s.Env.writeback()
	}
	return way
}

// noteEviction counts a private eviction and drops the line from the
// directory if no other cache of the same PU still holds it.
func (s *PrivateStage) noteEviction(ev cache.Eviction, alsoHolds *cache.Cache) {
	if !ev.Valid {
		return
	}
	if ev.Dirty {
		s.Env.writeback()
	}
	dir := s.Coherence.Directory()
	if dir == nil {
		return
	}
	if alsoHolds != nil && alsoHolds.Probe(ev.Addr) {
		return
	}
	dir.Evict(int(s.PU), ev.Addr)
}

// MSHRStage merges a miss with an already-outstanding miss to the same
// line: the access completes with the in-flight fill (which also
// populates the private levels), so the rest of the pipeline is
// skipped.
type MSHRStage struct {
	File *cache.MSHR
}

// Process checks the MSHR file; a merged request completes when the
// outstanding fill returns (or immediately, if it already has).
func (s *MSHRStage) Process(r *Request) Verdict {
	if ready, ok := s.File.Outstanding(r.Line, r.Now); ok {
		r.Flags |= FlagMerged
		r.Now = clock.Max(ready, r.Now)
		return Done
	}
	return Next
}

// RingHopStage moves the request over the interconnect: the request
// message from the PU's stop to the home L3 tile (StageRingReq), or the
// data response back (StageRingResp).
type RingHopStage struct {
	Stage StageID // StageRingReq or StageRingResp
	Net   Interconnect
	Topo  Topology
}

// Process sends the hop's message and advances the request to the
// arrival time.
func (s *RingHopStage) Process(r *Request) Verdict {
	src := s.Topo.PUStop[r.PU]
	ts := s.Topo.TileStop(s.Topo.TileFor(r.Addr))
	if s.Stage == StageRingReq {
		r.Now = s.Net.Send(src, ts, s.Topo.ReqBytes, r.Now)
	} else {
		r.Now = s.Net.Send(ts, src, s.Topo.LineBytes+s.Topo.ReqBytes, r.Now)
	}
	return Next
}

// L3Stage is the shared L3: the home tile charges its access latency,
// consults the coherence directory, and looks the line up. The lookup
// outcome is recorded in FlagL3Hit for the downstream DRAM stage.
type L3Stage struct {
	Tiles []*cache.Cache
	Lat   clock.Duration
	// Mem absorbs dirty victim writebacks; in production it is the
	// hierarchy's terminal Backend.
	Mem       Writebacker
	Topo      Topology
	Coherence *CoherenceStage
	Env       *Env
}

// Process performs the home-tile lookup.
func (s *L3Stage) Process(r *Request) Verdict {
	r.Now = r.Now.Add(s.Lat)
	s.Coherence.Process(r)
	if s.Tiles[s.Topo.TileFor(r.Addr)].Lookup(r.Addr, r.Write) {
		r.Flags |= FlagL3Hit
		s.Env.L3Hits[r.PU]++
	}
	return Next
}

// Fill installs a line into its L3 tile; a dirty victim is written back
// to the terminal memory, occupying the backend but off the critical
// path.
func (s *L3Stage) Fill(tile int, addr uint64, explicit, dirty bool, now clock.Time) {
	ev := s.Tiles[tile].Fill(addr, explicit, dirty)
	if ev.Valid && ev.Dirty {
		s.Env.writeback()
		if s.Mem != nil {
			s.Mem.Writeback(ev.Addr, now)
		}
	}
}

// DRAMStage serves L3 misses: the request hops from the home tile to
// the memory-controller stop, accesses DRAM, and the line returns to
// the home tile, where it is installed. L3 hits pass through untouched.
// It is the baseline Backend (mem_tech: dram) — the refactor's
// bit-identical correctness anchor.
type DRAMStage struct {
	Ctrl *dram.Controller
	Net  Interconnect
	Topo Topology
	L3   *L3Stage
	Env  *Env

	accesses backendCounter
}

// Process fetches the line from DRAM unless the L3 already served it.
func (s *DRAMStage) Process(r *Request) Verdict {
	if r.Flags&FlagL3Hit != 0 {
		return Next
	}
	r.Flags |= FlagDRAM
	tile := s.Topo.TileFor(r.Addr)
	ts := s.Topo.TileStop(tile)
	r.Now = s.Net.Send(ts, s.Topo.MCStop, s.Topo.ReqBytes, r.Now)
	r.Now = s.Ctrl.Submit(r.Addr, r.Now)
	s.Env.DRAMFills[r.PU]++
	s.accesses.n++
	r.Now = s.Net.Send(s.Topo.MCStop, ts, s.Topo.LineBytes+s.Topo.ReqBytes, r.Now)
	s.L3.Fill(tile, r.Addr, false, r.Write, r.Now)
	return Next
}

// Writeback implements Backend: a dirty L3 victim occupies the
// controller at now, off the critical path.
func (s *DRAMStage) Writeback(addr uint64, now clock.Time) {
	s.Ctrl.Submit(addr, now)
}

// Reset implements Backend. The DDR3 controller is a hierarchy-owned
// substrate (the memory-controller fabric DMAs through it too), so the
// hierarchy resets it; only the stage's own counters clear here.
func (s *DRAMStage) Reset() { s.accesses.reset() }

// Instrument implements Backend, registering memtech.dram.*.
func (s *DRAMStage) Instrument(reg *obs.Registry) {
	s.accesses.instrument(reg, "memtech.dram.accesses")
}

// FlushObs implements Backend.
func (s *DRAMStage) FlushObs() { s.accesses.flush() }

// CommitStage finishes a shared-path request: the line is installed
// into the PU's private levels and the miss is registered in the MSHR
// file, which may push completion out further when the file is full.
type CommitStage struct {
	Private *PrivateStage
	File    *cache.MSHR
	Env     *Env
}

// Process fills the private levels and allocates the MSHR entry. The
// allocation is keyed to the time the request entered the shared path
// (the MSHR stamp), not its completion time, so merges observe the
// full in-flight window. The InFlight walk only runs with a live
// gauge, so the uninstrumented path pays a single nil check.
func (s *CommitStage) Process(r *Request) Verdict {
	r.L1Way = int8(s.Private.Fill(r.Addr, r.Write))
	issued := r.Stamp[StageMSHR]
	r.Now = s.File.Allocate(r.Line, issued, r.Now)
	if g := s.Env.Obs.MSHROut[s.Private.PU]; g != nil {
		g.Set(uint64(s.File.InFlight(issued)))
	}
	return Done
}

// CoherenceStage prices the directory work an access requires: remote
// copies are invalidated (and dirty ones written back) over the
// interconnect before the access may complete. It is invoked as a
// sub-stage by PrivateStage (write hits) and L3Stage (every shared
// access), and is free when the directory is off or the access needs
// no remote work.
type CoherenceStage struct {
	Dir  *coherence.Directory // nil = coherence off
	Net  Interconnect
	Topo Topology
	// Caches lists, per PU, the private caches to invalidate when the
	// directory recalls that PU's copy.
	Caches [NumPUs][]*cache.Cache
	Env    *Env
	// Gen, when non-nil, points at the per-PU generations backing line
	// memoizations (mem.Hierarchy's fast-path filter). When the stage
	// invalidates a remote copy, it bumps the victim PU's generation so
	// that PU's memo slots observe the mutation; the requester's own
	// memo is untouched by a remote recall.
	Gen *[NumPUs]uint64
}

// Directory returns the directory, or nil when coherence is off (or
// the stage itself is absent).
func (s *CoherenceStage) Directory() *coherence.Directory {
	if s == nil {
		return nil
	}
	return s.Dir
}

// Process consults the directory and, when remote work is needed,
// invalidates the other PU's copies and charges one interconnect round
// trip from the home tile to the remote PU.
func (s *CoherenceStage) Process(r *Request) Verdict {
	if s == nil || s.Dir == nil {
		return Next
	}
	if now, did := s.apply(r.PU, r.Addr, r.Line, r.Write, r.Now); did {
		r.Now = now
		r.Stamp[StageCoherence] = now
	}
	return Next
}

// Apply is the request-free core of the stage, invoked directly by the
// hierarchy's L1-hit fast path: it consults the directory for an
// access by pu and prices any remote invalidation, returning the
// (possibly advanced) completion time. Free when coherence is off.
func (s *CoherenceStage) Apply(pu PU, addr, line uint64, write bool, now clock.Time) clock.Time {
	if s == nil || s.Dir == nil {
		return now
	}
	t, _ := s.apply(pu, addr, line, write, now)
	return t
}

func (s *CoherenceStage) apply(pu PU, addr, line uint64, write bool, now clock.Time) (clock.Time, bool) {
	act := s.Dir.Access(int(pu), addr, write)
	if act.Messages == 0 {
		return now, false
	}
	s.Env.CoherenceOps++
	other := CPU
	if pu == CPU {
		other = GPU
	}
	if s.Gen != nil {
		s.Gen[other]++
	}
	for _, c := range s.Caches[other] {
		c.Invalidate(line)
	}
	// One round trip from the home tile to the remote PU: the
	// invalidate/forward out, the ack (plus data for a writeback) back.
	ts := s.Topo.TileStop(s.Topo.TileFor(addr))
	t := s.Net.Send(ts, s.Topo.PUStop[other], s.Topo.ReqBytes, now)
	resp := s.Topo.ReqBytes
	if act.Writeback {
		resp += s.Topo.LineBytes
	}
	return s.Net.Send(s.Topo.PUStop[other], ts, resp, t), true
}
