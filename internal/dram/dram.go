// Package dram models the off-chip memory system of Table II: DDR3-1333
// with four controllers (channels), banked DRAM arrays with open-row
// policy, and FR-FCFS request scheduling.
//
// Timing follows the standard DDR3 command model at line granularity:
// a request to a bank whose row buffer already holds the target row (a
// row hit) pays only the column access (CL) plus burst transfer; a
// request to a different row (row conflict) pays precharge (tRP) +
// activate (tRCD) + column access. The data bus of each channel is a
// shared resource, which bounds per-channel bandwidth at
// LineBytes/BurstTime — 10.4 GB/s per channel, 41.6 GB/s aggregate,
// matching the paper's configuration.
package dram

import (
	"cmp"
	"fmt"
	"slices"

	"heteromem/internal/arena"
	"heteromem/internal/clock"
	"heteromem/internal/obs"
)

// Policy selects the request scheduling policy.
type Policy uint8

const (
	// FRFCFS is first-ready, first-come-first-served: within a batch,
	// requests that hit the currently open row are serviced before older
	// row-conflict requests.
	FRFCFS Policy = iota
	// FCFS services requests strictly in arrival order. Provided for the
	// scheduling ablation.
	FCFS
)

func (p Policy) String() string {
	switch p {
	case FRFCFS:
		return "fr-fcfs"
	case FCFS:
		return "fcfs"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Config describes the memory system geometry and timing.
type Config struct {
	// Channels is the number of independent controllers.
	Channels int
	// BanksPerChannel is the number of banks each channel schedules over.
	BanksPerChannel int
	// LineBytes is the transfer granularity (one cache line per request).
	LineBytes int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TCAS is the column access latency (CL) for a row hit.
	TCAS clock.Duration
	// TRCD is the row activate latency.
	TRCD clock.Duration
	// TRP is the precharge latency.
	TRP clock.Duration
	// TBurst is the data-bus occupancy of one line transfer.
	TBurst clock.Duration
	// TCCD is the minimum spacing between column commands to the same
	// bank: after a row hit the bank accepts its next command after TCCD,
	// not after the full column latency (column accesses pipeline).
	TCCD clock.Duration
	// Scheduling selects FR-FCFS or FCFS.
	Scheduling Policy
	// PartitionRegionBit, when nonzero, splits each channel's banks into
	// two halves selected by that address bit (PALLOC-style bank
	// partitioning): streams from different address regions stop
	// ping-ponging each other's row buffers. The simulator sets it to the
	// address-space region bit so CPU-private and GPU-private data use
	// disjoint banks.
	PartitionRegionBit uint
}

// DDR3_1333 returns the paper's baseline memory configuration: DDR3-1333
// (tCK = 1.5 ns, CL = tRCD = tRP = 9 cycles, tCCD = 4 cycles), 64-byte
// lines, 8 KB rows, 16 banks per channel (two ranks of eight), 4
// channels. Burst of a 64-byte line takes 4 bus cycles (8 beats, double
// data rate) = 6 ns, i.e. 10.4 GB/s per channel and 41.6 GB/s aggregate
// as in Table II.
func DDR3_1333() Config {
	const tCK = 1500 * clock.Picosecond
	return Config{
		Channels:        4,
		BanksPerChannel: 16,
		LineBytes:       64,
		RowBytes:        8192,
		TCAS:            9 * tCK,
		TRCD:            9 * tCK,
		TRP:             9 * tCK,
		TBurst:          4 * tCK,
		TCCD:            4 * tCK,
		Scheduling:      FRFCFS,
		// Partition banks between the CPU-private (bit clear) and
		// GPU-private (bit set) virtual regions; see addrspace's layout.
		PartitionRegionBit: 46,
	}
}

func (c Config) validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram: channels %d must be positive", c.Channels)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("dram: banks %d must be positive", c.BanksPerChannel)
	case c.LineBytes <= 0:
		return fmt.Errorf("dram: line bytes %d must be positive", c.LineBytes)
	case c.RowBytes < c.LineBytes:
		return fmt.Errorf("dram: row bytes %d smaller than line %d", c.RowBytes, c.LineBytes)
	}
	return nil
}

// PeakBandwidthGBs returns the aggregate data-bus bandwidth in GB/s.
func (c Config) PeakBandwidthGBs() float64 {
	perChannel := float64(c.LineBytes) / (float64(c.TBurst) * 1e-12) // bytes/s
	return perChannel * float64(c.Channels) / 1e9
}

type bank struct {
	openRow  uint64
	rowValid bool
	busy     clock.Time
}

type channel struct {
	banks []bank
	bus   *clock.Resource
}

// Stats counts memory-system events.
type Stats struct {
	Requests  uint64
	RowHits   uint64
	RowMisses uint64
}

// RowHitRate returns row hits over requests, or 0 with no requests.
func (s Stats) RowHitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Requests)
}

// Controller is the set of memory channels fronting DRAM.
type Controller struct {
	cfg      Config
	channels []channel
	stats    Stats
	// bytes is the data moved: one line per serviced request.
	bytes uint64

	// Scratch buffers reused across SubmitBatch/TransferTime calls so
	// batch scheduling allocates nothing in steady state: doneBuf backs
	// the returned completion times, reqBuf the synthetic request list
	// of a block transfer, and sched the FR-FCFS scheduler's index. They
	// grow from arena to the largest batch seen.
	arena   *arena.Arena
	doneBuf []clock.Time
	reqBuf  []Request
	sched   batchIndex
}

// Instrument binds the controller's counts into b as registry counters
// under prefix: "dram" for the hierarchy's DDR3 controllers, and the
// device's own namespace for a controller embedded in another device (an
// HBM stack registers memtech.hbm.*). The prefix.bytes counter advances
// by one line per serviced request, so per-epoch deltas divided by the
// epoch length give achieved bandwidth. The owner of b flushes it, and
// rebases it after resetting the controller.
func (c *Controller) Instrument(b *obs.Batch, reg *obs.Registry, prefix string) {
	b.Bind(reg, prefix+".requests", &c.stats.Requests)
	b.Bind(reg, prefix+".row_hits", &c.stats.RowHits)
	b.Bind(reg, prefix+".row_misses", &c.stats.RowMisses)
	b.Bind(reg, prefix+".bytes", &c.bytes)
}

// New returns a controller with all banks closed.
func New(cfg Config) (*Controller, error) {
	return NewIn(nil, cfg)
}

// NewIn is New with the batch scheduler's scratch carved from the arena
// (nil falls back to the heap) as batches outgrow it. The controller
// carves from the arena for its whole life, so it must run on the
// goroutine that owns the arena, and the arena may be Reset only once
// the controller is dropped.
func NewIn(a *arena.Arena, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, arena: a, channels: make([]channel, cfg.Channels)}
	for i := range c.channels {
		c.channels[i] = channel{
			banks: make([]bank, cfg.BanksPerChannel),
			bus:   clock.NewResource(fmt.Sprintf("dram.ch%d.bus", i)),
		}
	}
	return c, nil
}

// MustNew is New but panics on configuration error.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// mapAddr decomposes a line address into channel, bank and row indices.
// Lines interleave across channels, then banks, so sequential streams use
// all channels; the row index comes from the remaining high bits.
func (c *Controller) mapAddr(addr uint64) (ch, bk int, row uint64) {
	line := addr / uint64(c.cfg.LineBytes)
	ch = int(line % uint64(c.cfg.Channels))
	line /= uint64(c.cfg.Channels)
	banks := uint64(c.cfg.BanksPerChannel)
	if c.cfg.PartitionRegionBit != 0 && banks >= 2 {
		half := banks / 2
		sel := addr >> c.cfg.PartitionRegionBit & 1
		bk = int(line%half + half*sel)
		line /= half
	} else {
		bk = int(line % banks)
		line /= banks
	}
	row = line / uint64(c.cfg.RowBytes/c.cfg.LineBytes)
	return ch, bk, row
}

// Request is one line-granularity memory request.
type Request struct {
	// Addr is the physical address of the line.
	Addr uint64
	// Arrival is when the request reaches the controller.
	Arrival clock.Time
}

// Submit services a single request and returns the time its data has
// fully transferred.
func (c *Controller) Submit(addr uint64, now clock.Time) clock.Time {
	return c.service(addr, now)
}

func (c *Controller) service(addr uint64, at clock.Time) clock.Time {
	chIdx, bkIdx, row := c.mapAddr(addr)
	return c.serviceAt(&c.channels[chIdx], bkIdx, row, at)
}

// serviceAt is service on an already decomposed address.
func (c *Controller) serviceAt(ch *channel, bkIdx int, row uint64, at clock.Time) clock.Time {
	bk := &ch.banks[bkIdx]
	c.stats.Requests++
	c.bytes += uint64(c.cfg.LineBytes)

	start := clock.Max(at, bk.busy)
	var access, occupancy clock.Duration
	ccd := c.cfg.TCCD
	if ccd == 0 {
		ccd = c.cfg.TCAS
	}
	if bk.rowValid && bk.openRow == row {
		c.stats.RowHits++
		access = c.cfg.TCAS
		occupancy = ccd
	} else {
		c.stats.RowMisses++
		if bk.rowValid {
			access = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
			occupancy = c.cfg.TRP + c.cfg.TRCD + ccd
		} else {
			access = c.cfg.TRCD + c.cfg.TCAS
			occupancy = c.cfg.TRCD + ccd
		}
		bk.openRow = row
		bk.rowValid = true
	}
	dataReady := start.Add(access)
	// Column commands pipeline: the bank accepts its next command after
	// the command occupancy (tCCD past the activate/precharge work), not
	// after the data returns; the burst itself only occupies the
	// channel's shared data bus.
	bk.busy = start.Add(occupancy)
	_, done := ch.bus.Acquire(dataReady, c.cfg.TBurst)
	return done
}

// SubmitBatch schedules a batch of requests that are simultaneously
// visible to the controller (e.g. a coalesced GPU burst or a DMA block
// transfer) and returns each request's completion time, in the order the
// requests were given. Under FRFCFS the controller reorders within the
// batch: at each step it picks the lowest-indexed request whose target
// row is open in its bank; if none, the oldest request (lowest index on
// equal arrivals).
// The returned slice is the controller's scratch buffer: it is valid
// until the next SubmitBatch or TransferTime call.
func (c *Controller) SubmitBatch(reqs []Request) []clock.Time {
	c.doneBuf = grow(c.arena, c.doneBuf, len(reqs))
	done := c.doneBuf
	if len(reqs) == 0 {
		return done
	}
	if c.cfg.Scheduling == FCFS {
		for i, r := range reqs {
			done[i] = c.service(r.Addr, r.Arrival)
		}
		return done
	}
	x := &c.sched
	x.build(c, reqs)
	for range reqs {
		i := x.next()
		done[i] = c.serviceAt(&c.channels[x.ch[i]], int(x.bk[i]), x.row[i], reqs[i].Arrival)
		x.serviced(i)
	}
	return done
}

// batchIndex makes each FR-FCFS pick in O(log banks) instead of
// rescanning the pending requests. Servicing a request changes the open
// row of its own bank only, so each bank has at most one candidate, its
// lowest-indexed pending request to the row it has open, and a min-heap
// of the candidates yields the first-ready pick. To find a bank's next
// candidate, its requests are sorted by (row, index) into runs of one
// row, and a cursor per run skips requests already serviced. A cursor
// over all requests sorted by (arrival, index) yields the first-come
// pick when no bank has a candidate. The address decomposition is
// static, so it is computed once per request. Every slice is scratch,
// grown from the controller's arena to the largest batch seen and
// reused.
type batchIndex struct {
	ch, bk []int32  // request -> channel, bank within the channel
	row    []uint64 // request -> row
	done   []bool   // request -> serviced
	run    []int32  // request -> end of its run in order

	order []int32 // requests grouped by bank, each bank sorted by (row, index)
	// cursor, at a run's last position, is the run's first position
	// that may still be pending.
	cursor    []int32
	bankStart []int32 // flat bank -> first position in order; len banks+1

	heap []int32 // candidates, a min-heap of request indices
	fcfs []int32 // requests sorted by (arrival, index); empty if in index order
	fc   int     // first-come cursor, into fcfs or the request indices
}

// grow resizes scratch to n from the arena, dropping its contents: build
// rewrites every element it reads.
func grow[T any](a *arena.Arena, s []T, n int) []T { return arena.Grow(a, s[:0], n) }

func (x *batchIndex) build(c *Controller, reqs []Request) {
	n, perCh := len(reqs), c.cfg.BanksPerChannel
	banks := c.cfg.Channels * perCh
	a := c.arena
	x.ch, x.bk, x.row, x.done = grow(a, x.ch, n), grow(a, x.bk, n), grow(a, x.row, n), grow(a, x.done, n)
	x.run, x.order = grow(a, x.run, n), grow(a, x.order, n)
	// cursor doubles as the counting sort's per-bank fill pointers.
	x.cursor = grow(a, x.cursor, max(n, banks))
	x.bankStart = grow(a, x.bankStart, banks+1)
	clear(x.bankStart)
	// A bank offers at most one candidate, so the heap never outgrows
	// banks and push's append never reallocates.
	x.heap, x.fcfs, x.fc = grow(a, x.heap, banks)[:0], x.fcfs[:0], 0

	arrivalOrder := true
	for i, r := range reqs {
		ch, bk, row := c.mapAddr(r.Addr)
		x.ch[i], x.bk[i], x.row[i], x.done[i] = int32(ch), int32(bk), row, false
		x.bankStart[ch*perCh+bk+1]++
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			arrivalOrder = false
		}
	}
	if !arrivalOrder {
		x.fcfs = grow(a, x.fcfs, n)
		for i := range x.fcfs {
			x.fcfs[i] = int32(i)
		}
		slices.SortFunc(x.fcfs, func(a, b int32) int {
			if c := cmp.Compare(reqs[a].Arrival, reqs[b].Arrival); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	// Counting sort by bank, stable, so each bank's requests are in
	// index order.
	for b := 1; b <= banks; b++ {
		x.bankStart[b] += x.bankStart[b-1]
	}
	fill := x.cursor[:banks]
	copy(fill, x.bankStart)
	for i := range reqs {
		b := x.ch[i]*int32(perCh) + x.bk[i]
		x.order[fill[b]] = int32(i)
		fill[b]++
	}
	for ch := range c.channels {
		for bk := range c.channels[ch].banks {
			b := ch*perCh + bk
			if lo, hi := x.bankStart[b], x.bankStart[b+1]; lo < hi {
				x.indexBank(x.order[lo:hi], lo, &c.channels[ch].banks[bk])
			}
		}
	}
}

// indexBank sorts one bank's requests sec (at position lo of order) by
// (row, index), splits them into runs and offers the run of the bank's
// open row as the bank's candidate.
func (x *batchIndex) indexBank(sec []int32, lo int32, bk *bank) {
	for k := 1; k < len(sec); k++ {
		if x.row[sec[k]] < x.row[sec[k-1]] {
			slices.SortStableFunc(sec, func(a, b int32) int { return cmp.Compare(x.row[a], x.row[b]) })
			break
		}
	}
	end := lo + int32(len(sec))
	for k := len(sec) - 1; k >= 0; k-- {
		i, p := sec[k], lo+int32(k)
		if k < len(sec)-1 && x.row[i] != x.row[sec[k+1]] {
			end = p + 1
		}
		x.run[i] = end
		x.cursor[end-1] = p
		if (k == 0 || x.row[i] != x.row[sec[k-1]]) && bk.rowValid && bk.openRow == x.row[i] {
			x.push(i)
		}
	}
}

// next returns the request FR-FCFS services next.
func (x *batchIndex) next() int32 {
	if len(x.heap) > 0 {
		return x.heap[0]
	}
	for ; ; x.fc++ {
		i := int32(x.fc)
		if len(x.fcfs) > 0 {
			i = x.fcfs[x.fc]
		}
		if !x.done[i] {
			return i
		}
	}
}

// serviced retires request i. Its bank now has i's row open, so the
// bank's candidate becomes the first pending request of i's run. With
// candidates pending, i was the heap's minimum, its bank's candidate;
// otherwise i was a first-come pick and its bank had none.
func (x *batchIndex) serviced(i int32) {
	x.done[i] = true
	end := x.run[i]
	p := x.cursor[end-1]
	for p < end && x.done[x.order[p]] {
		p++
	}
	x.cursor[end-1] = p
	switch {
	case len(x.heap) == 0:
		if p < end {
			x.push(x.order[p])
		}
	case p < end:
		x.heap[0] = x.order[p]
		x.down()
	default:
		last := len(x.heap) - 1
		x.heap[0] = x.heap[last]
		x.heap = x.heap[:last]
		x.down()
	}
}

func (x *batchIndex) push(i int32) {
	x.heap = append(x.heap, i)
	h := x.heap
	for k := len(h) - 1; k > 0; {
		parent := (k - 1) / 2
		if h[parent] <= h[k] {
			return
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
}

// down restores the heap after its root changed.
func (x *batchIndex) down() {
	h, k := x.heap, 0
	for {
		m := 2*k + 1
		if m >= len(h) {
			return
		}
		if m+1 < len(h) && h[m+1] < h[m] {
			m++
		}
		if h[k] <= h[m] {
			return
		}
		h[k], h[m] = h[m], h[k]
		k = m
	}
}

// TransferTime returns how long a size-byte block transfer takes through
// the controller, assuming ideal streaming across all channels starting
// at now. Used to cost DMA-style copies through the memory controllers
// (the Fusion communication path).
func (c *Controller) TransferTime(size uint64, now clock.Time) clock.Time {
	if size == 0 {
		return now
	}
	lines := (size + uint64(c.cfg.LineBytes) - 1) / uint64(c.cfg.LineBytes)
	c.reqBuf = grow(c.arena, c.reqBuf, int(lines))
	reqs := c.reqBuf
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i) * uint64(c.cfg.LineBytes), Arrival: now}
	}
	latest := now
	for _, t := range c.SubmitBatch(reqs) {
		latest = clock.Max(latest, t)
	}
	return latest
}

// Reset closes every row and idles every bus, clearing statistics.
func (c *Controller) Reset() {
	for i := range c.channels {
		for j := range c.channels[i].banks {
			c.channels[i].banks[j] = bank{}
		}
		c.channels[i].bus.Reset()
	}
	c.stats = Stats{}
	c.bytes = 0
}
