package memsys

import (
	"heteromem/internal/cache"
	"heteromem/internal/clock"
	"heteromem/internal/coherence"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// Counts are the per-hierarchy event counters the stages bump on the
// hot path: plain fields, bound into the hierarchy's observability
// batch.
type Counts struct {
	L1Hits       [NumPUs]uint64
	L2Hits       uint64 // CPU only
	L3Hits       [NumPUs]uint64
	DRAMFills    [NumPUs]uint64
	Writebacks   uint64
	CoherenceOps uint64
}

// Env is the state shared by every stage of one hierarchy: the event
// counters the stages bump and the MSHR occupancy gauges. Stages hold a
// pointer to their hierarchy's Env, so re-wiring the gauges
// (mem.Hierarchy.Instrument) reaches every stage.
type Env struct {
	Counts
	// MSHROut are the optional per-PU MSHR occupancy gauges, nil-checked
	// explicitly because updating one walks the MSHR file.
	MSHROut [NumPUs]*obs.Gauge
}

// writeback counts one dirty-line writeback.
func (e *Env) writeback() {
	e.Writebacks++
}

// PrivateStage is a PU's private levels below the first: on the CPU the
// private L2, whose hit completes the request. The hierarchy probes the
// first level itself before entering the chain. The stage also
// installs lines on behalf of CommitStage (Fill).
type PrivateStage struct {
	PU        PU
	L1        *cache.Cache
	L2        *cache.Cache // nil when the PU has no private second level
	L2Lat     clock.Duration
	Coherence *CoherenceStage
	Env       *Env
}

// Process continues a request whose first-level lookup missed: the CPU
// consults its private L2 and reports whether it hit (filling the line
// into L1); PUs without a second level pass the request on.
func (s *PrivateStage) Process(r *Request) bool {
	if s.L2 == nil {
		return false
	}
	r.Now = r.Now.Add(s.L2Lat)
	if s.L2.Lookup(r.Addr, r.Write) {
		s.Env.L2Hits++
		s.fillInto(s.L1, r.Addr, r.Write)
		return true
	}
	return false
}

// Fill installs the line into the PU's private levels after a shared
// fill, notifying the directory when a line leaves the PU's domain
// entirely.
func (s *PrivateStage) Fill(addr uint64, write bool) {
	if s.L2 != nil {
		ev := s.L2.Fill(addr, false, false)
		s.noteEviction(ev, s.L1)
		s.fillInto(s.L1, addr, write)
		return
	}
	s.noteEviction(s.L1.Fill(addr, false, write), nil)
}

// fillInto fills a private cache, absorbing the eviction (private-level
// writebacks land in the level below, whose traffic the shared path
// already dominates; we count them only).
func (s *PrivateStage) fillInto(c *cache.Cache, addr uint64, dirty bool) {
	if ev := c.Fill(addr, false, dirty); ev.Valid && ev.Dirty {
		s.Env.writeback()
	}
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

// Process checks the MSHR file and reports whether the request merged;
// a merged request completes when the outstanding fill returns (or
// immediately, if it already has).
func (s *MSHRStage) Process(r *Request) bool {
	if ready, ok := s.File.Outstanding(r.Line, r.Now); ok {
		r.Now = clock.Max(ready, r.Now)
		return true
	}
	return false
}

// RingHopStage moves the request over the interconnect: the request
// message from the PU's stop to the home L3 tile, or (Resp) the data
// response back.
type RingHopStage struct {
	Resp bool
	Net  Interconnect
	Topo Topology
}

// Process sends the hop's message and advances the request to the
// arrival time.
func (s *RingHopStage) Process(r *Request) {
	src := s.Topo.PUStop[r.PU]
	ts := s.Topo.TileStop(s.Topo.TileFor(r.Addr))
	if s.Resp {
		r.Now = s.Net.Send(ts, src, s.Topo.LineBytes+s.Topo.ReqBytes, r.Now)
	} else {
		r.Now = s.Net.Send(src, ts, s.Topo.ReqBytes, r.Now)
	}
}

// L3Stage is the shared L3: the home tile charges its access latency,
// consults the coherence directory and looks the line up; on a miss,
// Fetch brings the line from Mem, the memory technology behind it.
type L3Stage struct {
	Tiles []*cache.Cache
	Lat   clock.Duration
	// Mem serves L3 misses and absorbs dirty victim writebacks.
	Mem       Backend
	Net       Interconnect
	Topo      Topology
	Coherence *CoherenceStage
	Env       *Env
}

// Process performs the home-tile lookup and reports whether it hit.
func (s *L3Stage) Process(r *Request) bool {
	r.Now = s.Coherence.Apply(r.PU, r.Addr, r.Line, r.Write, r.Now.Add(s.Lat))
	if s.Tiles[s.Topo.TileFor(r.Addr)].Lookup(r.Addr, r.Write) {
		s.Env.L3Hits[r.PU]++
		return true
	}
	return false
}

// Fetch serves an L3 miss, the same way for every memory technology:
// the request hops from the home tile to the memory-controller stop,
// Mem reads the line, and the line returns to the home tile, where it
// is installed.
func (s *L3Stage) Fetch(r *Request) {
	tile := s.Topo.TileFor(r.Addr)
	ts := s.Topo.TileStop(tile)
	r.Now = s.Net.Send(ts, s.Topo.MCStop, s.Topo.ReqBytes, r.Now)
	r.Now = s.Mem.Read(r.Addr, r.Now)
	s.Env.DRAMFills[r.PU]++
	r.Now = s.Net.Send(s.Topo.MCStop, ts, s.Topo.LineBytes+s.Topo.ReqBytes, r.Now)
	s.Fill(tile, r.Addr, false, r.Write, r.Now)
}

// Fill installs a line into its L3 tile; a dirty victim is written back
// to Mem, occupying the device but off the critical path.
func (s *L3Stage) Fill(tile int, addr uint64, explicit, dirty bool, now clock.Time) {
	ev := s.Tiles[tile].Fill(addr, explicit, dirty)
	if ev.Valid && ev.Dirty {
		s.Env.writeback()
		s.Mem.Writeback(ev.Addr, now)
	}
}

// DRAMStage is the baseline Backend (mem_tech: dram): the paper's DDR3
// controller — the refactor's bit-identical correctness anchor.
type DRAMStage struct {
	Ctrl *dram.Controller

	accesses uint64
}

// Read implements Backend: one controller access.
func (s *DRAMStage) Read(addr uint64, now clock.Time) clock.Time {
	s.accesses++
	return s.Ctrl.Submit(addr, now)
}

// Writeback implements Backend: a dirty L3 victim occupies the
// controller at now, off the critical path.
func (s *DRAMStage) Writeback(addr uint64, now clock.Time) {
	s.Ctrl.Submit(addr, now)
}

// Instrument implements Backend, binding memtech.dram.*.
func (s *DRAMStage) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "memtech.dram.accesses", &s.accesses)
}

// CommitStage finishes a shared-path request: the line is installed
// into the PU's private levels and the miss is registered in the MSHR
// file, which may push completion out further when the file is full.
type CommitStage struct {
	Private *PrivateStage
	File    *cache.MSHR
	Env     *Env
}

// Process fills the private levels and allocates the MSHR entry over
// [issued, r.Now], where issued is the time the request entered the
// shared path. The InFlight walk only runs with a live gauge, so the
// uninstrumented path pays a single nil check.
func (s *CommitStage) Process(r *Request, issued clock.Time) {
	s.Private.Fill(r.Addr, r.Write)
	r.Now = s.File.Allocate(r.Line, issued, r.Now)
	if g := s.Env.MSHROut[s.Private.PU]; g != nil {
		g.Set(uint64(s.File.InFlight(issued)))
	}
}

// CoherenceStage prices the directory work an access requires: remote
// copies are invalidated (and dirty ones written back) over the
// interconnect before the access may complete. The hierarchy applies
// it on L1 write hits and L3Stage on every shared access; it is free
// when the directory is off or the access needs no remote work.
type CoherenceStage struct {
	Dir  *coherence.Directory // nil = coherence off
	Net  Interconnect
	Topo Topology
	// Caches lists, per PU, the private caches to invalidate when the
	// directory recalls that PU's copy.
	Caches [NumPUs][]*cache.Cache
	Env    *Env
}

// Directory returns the directory, or nil when coherence is off (or
// the stage itself is absent).
func (s *CoherenceStage) Directory() *coherence.Directory {
	if s == nil {
		return nil
	}
	return s.Dir
}

// Apply consults the directory for an access by pu and, when remote
// work is needed, invalidates the other PU's copies and charges one
// interconnect round trip from the home tile to the remote PU,
// returning the (possibly advanced) completion time. Free when
// coherence is off.
func (s *CoherenceStage) Apply(pu PU, addr, line uint64, write bool, now clock.Time) clock.Time {
	if s == nil || s.Dir == nil {
		return now
	}
	act := s.Dir.Access(int(pu), addr, write)
	if act.Messages == 0 {
		return now
	}
	s.Env.CoherenceOps++
	other := CPU
	if pu == CPU {
		other = GPU
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
	return s.Net.Send(s.Topo.PUStop[other], ts, resp, t)
}
