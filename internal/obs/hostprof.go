package obs

import (
	"slices"
	"time"
)

// HostProf attributes HOST wall-clock time to labeled code sections —
// simulator phases, memory-pipeline stages — so a slow sweep can answer
// "where does real time go" without an external profiler. Sections are
// registered once (idempotent by name) and accumulate into plain struct
// fields; FlushTo drains deltas into a Registry through the same batched
// path the simulated-time counters use, as host.<section>.ns and
// host.<section>.samples counters.
//
// Timing every event would double the cost of the hot path, so hot
// callers gate on Sample(), which is true once every `every` calls: the
// flushed numbers are a sample of host time, not a census (the .samples
// counter says how many events were timed). Coarse callers (one timing
// per simulator phase) skip the gate and call Add directly.
//
// Every timed interval also spans one clock read: its end stamp is taken
// inside it, and the next interval starts from that stamp. Against a
// stage of a few tens of nanoseconds that read is no small share, so
// each profiler measures the cost once, when made, and Add deducts it.
//
// A HostProf belongs to one simulator goroutine, like the Registry.
// Methods on a nil *HostProf are no-ops and Sample returns false, so
// disabled profiling costs one predictable nil-check branch.
type HostProf struct {
	every uint32
	tick  uint32
	names []string
	index map[string]int
	ns    []uint64
	count []uint64
	// flushed mirrors ns/count at the last FlushTo, so flushes add deltas.
	flushedNS    []uint64
	flushedCount []uint64
	// clockNS is the host cost of one clock read, deducted from every
	// Add.
	clockNS time.Duration
}

// NewHostProf returns a profiler that samples one in every `every`
// gated events; every < 1 times all of them.
func NewHostProf(every int) *HostProf {
	if every < 1 {
		every = 1
	}
	return &HostProf{every: uint32(every), index: map[string]int{}, clockNS: clockReadCost()}
}

// clockReadCost returns the median gap between the clock reads of
// back-to-back laps that time nothing and charge it through Add: what an
// interval timing an empty body measures.
func clockReadCost() time.Duration {
	var gaps [255]time.Duration
	scratch := &HostProf{ns: make([]uint64, 1), count: make([]uint64, 1)}
	prev := time.Now()
	for i := range gaps {
		now := time.Now()
		gaps[i], prev = now.Sub(prev), now
		scratch.Add(0, gaps[i])
	}
	slices.Sort(gaps[:])
	return gaps[len(gaps)/2]
}

// Every returns the sampling period; 0 on nil.
func (p *HostProf) Every() int {
	if p == nil {
		return 0
	}
	return int(p.every)
}

// Section registers (or looks up) a named section and returns its id.
// Repeated registration of the same names yields the same ids, so pooled
// simulators sharing one profiler agree on the numbering. Returns -1 on
// a nil profiler (Add ignores it).
func (p *HostProf) Section(name string) int {
	if p == nil {
		return -1
	}
	if id, ok := p.index[name]; ok {
		return id
	}
	id := len(p.names)
	p.index[name] = id
	p.names = append(p.names, name)
	p.ns = append(p.ns, 0)
	p.count = append(p.count, 0)
	p.flushedNS = append(p.flushedNS, 0)
	p.flushedCount = append(p.flushedCount, 0)
	return id
}

// Sample reports whether this event should be timed, true once per
// `every` calls. Always false on nil.
func (p *HostProf) Sample() bool {
	if p == nil {
		return false
	}
	p.tick++
	if p.tick >= p.every {
		p.tick = 0
		return true
	}
	return false
}

// Add attributes d of host time, less the cost of one clock read and at
// least zero, to section id. No-op on nil or an invalid id.
func (p *HostProf) Add(id int, d time.Duration) {
	if p == nil || id < 0 || id >= len(p.ns) {
		return
	}
	p.ns[id] += uint64(max(d-p.clockNS, 0))
	p.count[id]++
}

// SectionNS returns the total nanoseconds attributed to the named
// section so far (0 if unknown or nil).
func (p *HostProf) SectionNS(name string) uint64 {
	if p == nil {
		return 0
	}
	id, ok := p.index[name]
	if !ok {
		return 0
	}
	return p.ns[id]
}

// FlushTo drains the accumulation since the last flush into reg as
// host.<section>.ns and host.<section>.samples counters. Registration is
// idempotent, so repeated flushes into the same registry reuse the same
// instruments. No-op on a nil profiler or registry.
func (p *HostProf) FlushTo(reg *Registry) {
	if p == nil || reg == nil {
		return
	}
	for id, name := range p.names {
		if d := p.ns[id] - p.flushedNS[id]; d > 0 {
			reg.Counter("host." + name + ".ns").Add(d)
			p.flushedNS[id] = p.ns[id]
		}
		if d := p.count[id] - p.flushedCount[id]; d > 0 {
			reg.Counter("host." + name + ".samples").Add(d)
			p.flushedCount[id] = p.count[id]
		}
	}
}

// Reset clears all accumulated time and the flush bookkeeping, keeping
// the registered sections. No-op on nil.
func (p *HostProf) Reset() {
	if p == nil {
		return
	}
	p.tick = 0
	for i := range p.ns {
		p.ns[i] = 0
		p.count[i] = 0
		p.flushedNS[i] = 0
		p.flushedCount[i] = 0
	}
}
