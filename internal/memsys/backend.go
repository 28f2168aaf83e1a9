package memsys

import (
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Backend is the memory technology that serves L3 misses (the
// mem_tech design axis). The built-in DRAMStage is the paper's DDR3
// baseline; HBMStage, NVMStage and DRAMCacheStage model the 2020s
// alternatives. L3Stage.Fetch owns everything around the device access
// — the hops between the home tile and the memory-controller stop, the
// fill count and the L3 install — so a backend prices only the device.
// A backend is shared by every PU's Chain, so cross-PU contention on
// the device is modelled exactly as with the single DRAM controller.
//
// A backend absorbs L3 victim writebacks and binds its memtech.*
// counts into the hierarchy's observability batch. It has no reset: a
// cold run starts on a new build of its hierarchy.
type Backend interface {
	// Read serves the line at addr for a request arriving at the
	// memory-controller stop at now and returns the time its data
	// leaves the device.
	Read(addr uint64, now clock.Time) clock.Time
	// Writeback absorbs a dirty victim evicted from the shared L3: the
	// line moves to the device off the requesting access's critical
	// path, occupying its resources but delaying nobody.
	Writeback(addr uint64, now clock.Time)
	// Instrument binds the backend's counts into b as registry counters
	// under memtech.*.
	Instrument(b *obs.Batch, reg *obs.Registry)
}

// chanFor interleaves line addresses across n channels.
func chanFor(addr uint64, lineBytes int, n int) int {
	return int((addr / uint64(lineBytes)) % uint64(n))
}
