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

	accesses backendCounter
}

// Read implements Backend: the fixed stacked-path latency, then the
// banked access.
func (s *HBMStage) Read(addr uint64, now clock.Time) clock.Time {
	s.accesses.n++
	return s.Ctrl.Submit(addr, now.Add(s.ExtraLat))
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
