// Package noc models the on-chip interconnect of Table II: a
// bidirectional ring bus connecting the processing units, the shared
// last-level cache tiles, and the memory controllers.
//
// Messages use wormhole-style timing: the header pays one hop latency per
// link along the shorter ring direction, the body serialises onto each
// link at the link width, and links are shared resources so concurrent
// messages contend.
package noc

import (
	"fmt"
	"math/bits"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Config describes the ring geometry and timing.
type Config struct {
	// Stops is the number of ring stops. Must be at least 2.
	Stops int
	// HopLatency is the header latency per link traversed.
	HopLatency clock.Duration
	// LinkBytesPerCycle is the link width in bytes per link cycle.
	LinkBytesPerCycle int
	// CycleTime is the ring clock period.
	CycleTime clock.Duration
}

func (c Config) validate() error {
	switch {
	case c.Stops < 2:
		return fmt.Errorf("noc: ring needs at least 2 stops, got %d", c.Stops)
	case c.HopLatency == 0:
		return fmt.Errorf("noc: zero hop latency")
	case c.LinkBytesPerCycle <= 0:
		return fmt.Errorf("noc: link width %d must be positive", c.LinkBytesPerCycle)
	case c.CycleTime == 0:
		return fmt.Errorf("noc: zero cycle time")
	}
	return nil
}

// Stats counts interconnect traffic.
type Stats struct {
	Messages  uint64
	TotalHops uint64
	Bytes     uint64
}

// Ring is a bidirectional ring interconnect.
type Ring struct {
	cfg Config
	// links[i] is the clockwise link from stop i to stop (i+1)%n, and
	// links[n+i] the counter-clockwise link from stop (i+1)%n to stop i.
	links []clock.Resource
	// hops[span[k]:span[k+1]], k = from*Stops+to, indexes the links a
	// message traverses, precomputed so the Send hot path walks a slice
	// instead of re-deriving direction and wrap-around arithmetic per
	// hop.
	hops []uint32
	span []uint32
	// lbcShift is log2(LinkBytesPerCycle) when the link width is a power
	// of two, else -1 (Send falls back to division).
	lbcShift int
	stats    Stats
	// linkBusyPS accumulates link occupancy: serialisation time times
	// links traversed.
	linkBusyPS uint64
}

// Instrument binds the ring's counts into b as registry counters under
// noc.*. Per-epoch deltas of noc.link_busy_ps divided by the epoch
// length and link count give ring-link utilisation. The owner of b
// flushes it.
func (r *Ring) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "noc.messages", &r.stats.Messages)
	b.Bind(reg, "noc.hops", &r.stats.TotalHops)
	b.Bind(reg, "noc.bytes", &r.stats.Bytes)
	b.Bind(reg, "noc.link_busy_ps", &r.linkBusyPS)
}

// Links returns the number of directed links (two per stop pair).
func (r *Ring) Links() int { return 2 * r.cfg.Stops }

// New returns a ring with idle links.
func New(cfg Config) (*Ring, error) { return NewIn(nil, cfg) }

// NewIn is New with the links and the route table carved from the arena
// (nil falls back to the heap). The arena may be Reset only once the
// ring is dropped.
func NewIn(a *arena.Arena, cfg Config) (*Ring, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Ring{cfg: cfg, lbcShift: -1}
	if w := cfg.LinkBytesPerCycle; w&(w-1) == 0 {
		r.lbcShift = bits.TrailingZeros(uint(w))
	}
	n := cfg.Stops
	// A message takes the shorter direction, so every stop reaches the
	// others over the same total number of hops.
	hopsFrom := 0
	for d := 1; d < n; d++ {
		hopsFrom += min(d, n-d)
	}
	r.links = arena.Make[clock.Resource](a, 2*n)
	r.hops = arena.Make[uint32](a, n*hopsFrom)
	r.span = arena.Make[uint32](a, n*n+1)
	off := uint32(0)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			r.span[from*n+to] = off
			cwHops := ((to-from)%n + n) % n
			stop := from
			if cwHops <= n-cwHops {
				for h := 0; h < cwHops; h++ {
					r.hops[off] = uint32(stop)
					off++
					stop = (stop + 1) % n
				}
			} else {
				for h := 0; h < n-cwHops; h++ {
					prev := (stop - 1 + n) % n
					r.hops[off] = uint32(n + prev)
					off++
					stop = prev
				}
			}
		}
	}
	r.span[n*n] = off
	return r, nil
}

// MustNew is New but panics on configuration error.
func MustNew(cfg Config) *Ring {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the ring's configuration.
func (r *Ring) Config() Config { return r.cfg }

// Stats returns a snapshot of the counters.
func (r *Ring) Stats() Stats { return r.stats }

// Hops returns the number of links a message from one stop to the other
// traverses, taking the shorter direction (ties go clockwise).
func (r *Ring) Hops(from, to int) int {
	n := r.cfg.Stops
	cw := ((to-from)%n + n) % n
	ccw := n - cw
	if cw <= ccw {
		return cw
	}
	return ccw
}

// Send transmits a bytes-sized message from stop from to stop to,
// starting no earlier than now, and returns the time the full message has
// arrived. A message to the sender's own stop arrives immediately.
func (r *Ring) Send(from, to, bytes int, now clock.Time) clock.Time {
	if from < 0 || from >= r.cfg.Stops || to < 0 || to >= r.cfg.Stops {
		panic(fmt.Sprintf("noc: stop out of range: %d -> %d (ring has %d)", from, to, r.cfg.Stops))
	}
	if from == to {
		return now
	}
	var cycles int
	if r.lbcShift >= 0 {
		cycles = (bytes + r.cfg.LinkBytesPerCycle - 1) >> uint(r.lbcShift)
	} else {
		cycles = (bytes + r.cfg.LinkBytesPerCycle - 1) / r.cfg.LinkBytesPerCycle
	}
	if cycles == 0 {
		cycles = 1 // even a zero-payload control message takes a flit
	}
	ser := clock.Duration(uint64(cycles)) * r.cfg.CycleTime

	t := now
	k := from*r.cfg.Stops + to
	links := r.hops[r.span[k]:r.span[k+1]]
	hops := len(links)
	for _, l := range links {
		start, _ := r.links[l].Acquire(t, ser)
		t = start.Add(r.cfg.HopLatency)
	}
	r.stats.Messages++
	r.stats.TotalHops += uint64(hops)
	r.stats.Bytes += uint64(bytes)
	r.linkBusyPS += uint64(ser) * uint64(hops)
	return t.Add(ser)
}
