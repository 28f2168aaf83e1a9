package memsys

import (
	"heteromem/internal/clock"
	"heteromem/internal/dram"
	"heteromem/internal/obs"
)

// HBMStage is the HBM-class Backend: a stacked DRAM with many narrow
// pseudo-channels. It reuses the banked FR-FCFS controller model with
// HBM geometry (small rows, fast burst, many channels), so bank and bus
// contention behave exactly as in the baseline — only the numbers
// change — and adds a fixed ExtraLat every request pays for the stacked
// access path. The net effect is the HBM trade: roughly an order of
// magnitude more bandwidth at somewhat higher access latency.
//
// The stage owns its controller (the hierarchy's DDR3 controller keeps
// serving memory-controller-fabric DMA), so Reset restores it here.
type HBMStage struct {
	Ctrl     *dram.Controller
	ExtraLat clock.Duration
	Net      Interconnect
	Topo     Topology
	L3       *L3Stage
	Env      *Env

	accesses backendCounter
}

// Process fetches the line from the HBM stack unless the L3 already
// served it: hop to the memory-controller stop, the fixed stacked-path
// latency, the banked access, and the line's return and install.
func (s *HBMStage) Process(r *Request) Verdict {
	if r.Flags&FlagL3Hit != 0 {
		return Next
	}
	r.Flags |= FlagDRAM
	tile := s.Topo.TileFor(r.Addr)
	ts := s.Topo.TileStop(tile)
	r.Now = s.Net.Send(ts, s.Topo.MCStop, s.Topo.ReqBytes, r.Now)
	r.Now = s.Ctrl.Submit(r.Addr, r.Now.Add(s.ExtraLat))
	s.Env.DRAMFills[r.PU]++
	s.accesses.n++
	r.Now = s.Net.Send(s.Topo.MCStop, ts, s.Topo.LineBytes+s.Topo.ReqBytes, r.Now)
	s.L3.Fill(tile, r.Addr, false, r.Write, r.Now)
	return Next
}

// Writeback implements Backend: a dirty L3 victim occupies the stack's
// bank and bus off the critical path.
func (s *HBMStage) Writeback(addr uint64, now clock.Time) {
	s.Ctrl.Submit(addr, now)
}

// Reset implements Backend.
func (s *HBMStage) Reset() {
	s.Ctrl.Reset()
	s.accesses.reset()
}

// Instrument implements Backend, registering memtech.hbm.*: the
// stage's own access counter plus the controller's request/row/bytes
// counters under the same prefix.
func (s *HBMStage) Instrument(reg *obs.Registry) {
	s.accesses.instrument(reg, "memtech.hbm.accesses")
	s.Ctrl.InstrumentPrefix(reg, "memtech.hbm")
}

// FlushObs implements Backend. The controller's own counters bump
// per-event (as dram.* always has), so only the batched stage counter
// flushes here.
func (s *HBMStage) FlushObs() { s.accesses.flush() }
