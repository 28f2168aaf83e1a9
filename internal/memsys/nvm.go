package memsys

import (
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// NVMStage is the non-volatile-memory Backend: byte-addressable
// persistent memory on the memory bus (Optane-class). The defining
// asymmetry is latency: reads are several times slower than DRAM, and
// writes are slower still, so the device hides them behind a bounded
// write queue that drains serially. Reads proceed past queued writes —
// until the queue fills, at which point an arriving read stalls while
// the drain catches up. That read/write interference is the effect the
// model exists to capture: write-heavy kernels see their *read* latency
// collapse, which fixed-latency models miss entirely.
type NVMStage struct {
	// Chans are the per-channel bus resources; lines interleave across
	// them and each transfer occupies its channel for Bus.
	Chans    []clock.Resource
	ReadLat  clock.Duration
	WriteLat clock.Duration
	Bus      clock.Duration
	// QueueDepth bounds the write queue: a read arriving when more than
	// QueueDepth writes' worth of drain is pending stalls until the
	// backlog shrinks below the bound.
	QueueDepth int
	// LineBytes is the line size the channels interleave on.
	LineBytes int

	// horizon is the time the serial write drain finishes everything
	// queued so far; each write extends it by WriteLat.
	horizon clock.Time

	reads       uint64
	writes      uint64
	writeStalls uint64
}

// Read implements Backend: admission past the write queue, then the
// channel transfer plus the media read.
func (s *NVMStage) Read(addr uint64, now clock.Time) clock.Time {
	at := s.admit(now)
	start, _ := s.Chans[chanFor(addr, s.LineBytes, len(s.Chans))].Acquire(at, s.Bus)
	s.reads++
	return start.Add(s.ReadLat)
}

// admit lets a read bypass queued writes unless the drain backlog
// exceeds the queue bound, in which case the read waits until exactly
// QueueDepth writes remain pending.
func (s *NVMStage) admit(at clock.Time) clock.Time {
	bound := uint64(s.QueueDepth) * uint64(s.WriteLat)
	if uint64(s.horizon) > uint64(at)+bound {
		s.writeStalls++
		return clock.Time(uint64(s.horizon) - bound)
	}
	return at
}

// Writeback implements Backend: a dirty L3 victim transfers over its
// channel and joins the serial write drain. The eviction is off the
// requester's critical path; its cost surfaces as drain backlog that
// later reads may stall on.
func (s *NVMStage) Writeback(addr uint64, now clock.Time) {
	ch := chanFor(addr, s.LineBytes, len(s.Chans))
	start, _ := s.Chans[ch].Acquire(now, s.Bus)
	s.horizon = clock.Max(s.horizon, start).Add(s.WriteLat)
	s.writes++
}

// Instrument implements Backend, binding memtech.nvm.*.
func (s *NVMStage) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "memtech.nvm.reads", &s.reads)
	b.Bind(reg, "memtech.nvm.writes", &s.writes)
	b.Bind(reg, "memtech.nvm.write_stalls", &s.writeStalls)
}
