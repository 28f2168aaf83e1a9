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
// The stage owns its controller; the hierarchy's DDR3 controller keeps
// serving memory-controller-fabric DMA.
type HBMStage struct {
	Ctrl     *dram.Controller
	ExtraLat clock.Duration

	accesses uint64
}

// Read implements Backend: the fixed stacked-path latency, then the
// banked access.
func (s *HBMStage) Read(addr uint64, now clock.Time) clock.Time {
	s.accesses++
	return s.Ctrl.Submit(addr, now.Add(s.ExtraLat))
}

// Writeback implements Backend: a dirty L3 victim occupies the stack's
// bank and bus off the critical path.
func (s *HBMStage) Writeback(addr uint64, now clock.Time) {
	s.Ctrl.Submit(addr, now)
}

// Instrument implements Backend, binding memtech.hbm.*: the stage's
// own access count plus the controller's request/row/bytes counts under
// the same prefix.
func (s *HBMStage) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "memtech.hbm.accesses", &s.accesses)
	s.Ctrl.Instrument(b, reg, "memtech.hbm")
}
