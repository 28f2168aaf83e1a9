package memsys

import (
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Writebacker absorbs dirty victim lines evicted from the shared L3:
// the line moves to the terminal memory off the requesting access's
// critical path, occupying backend resources but delaying nobody.
type Writebacker interface {
	Writeback(addr uint64, now clock.Time)
}

// Backend is the terminal stage of the memory pipeline — the memory
// technology that serves L3 misses. The built-in DRAMStage is the
// paper's DDR3 baseline; HBMStage, NVMStage and DRAMCacheStage model
// the 2020s alternatives (the mem_tech design axis). A backend is
// shared by every PU's Chain, so cross-PU contention on the device is
// modelled exactly as with the single DRAM controller.
//
// A backend absorbs L3 victim writebacks, resets its device state
// between runs, and mirrors its batched memtech.* counters into an
// observability registry on the hierarchy's FlushObs cadence. Reset
// covers only backend-private state: substrates owned by the hierarchy
// (the DDR3 controller behind DRAMStage) are reset by their owner.
type Backend interface {
	// Process advances r.Now past the device access and installs the
	// line into the home L3 tile; an L3 hit passes through untouched.
	// Chain stamps the result as StageDRAM whatever the technology, so
	// request breakdowns stay comparable across backends.
	Process(r *Request) Verdict
	Writebacker
	// Reset returns backend-private device state and counters to
	// just-constructed; registered instruments stay wired.
	Reset()
	// Instrument registers the backend's memtech.* instruments with reg
	// (nil detaches them) and aligns the flush baseline so a freshly
	// attached registry observes only subsequent events.
	Instrument(reg *obs.Registry)
	// FlushObs pushes counter growth since the previous flush into the
	// registered instruments.
	FlushObs()
}

// chanFor interleaves line addresses across n channels.
func chanFor(addr uint64, lineBytes int, n int) int {
	return int((addr / uint64(lineBytes)) % uint64(n))
}

// backendCounter is one batched memtech.* counter: a plain hot-path
// field plus the flush baseline and instrument behind it.
type backendCounter struct {
	n       uint64
	flushed uint64
	obs     *obs.Counter
}

func (c *backendCounter) instrument(reg *obs.Registry, name string) {
	c.obs = reg.Counter(name)
	c.flushed = c.n
}

func (c *backendCounter) flush() {
	c.obs.Add(c.n - c.flushed)
	c.flushed = c.n
}

func (c *backendCounter) reset() {
	c.n = 0
	c.flushed = 0
}
