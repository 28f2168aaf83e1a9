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
	"fmt"

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
	obs      ctrlObs

	// Scratch buffers reused across SubmitBatch/TransferTime calls so
	// batch scheduling allocates nothing in steady state: doneBuf backs
	// the returned completion times, pendBuf holds the not-yet-scheduled
	// request indices, chBuf/bkBuf/
	// rowBuf the per-request address decomposition (computed once per
	// request instead of once per scheduling step), reqBuf the synthetic
	// request list of a block transfer. The decomposition deliberately
	// lives in parallel arrays (struct-of-arrays, like the cache line
	// metadata and the MSHR file) rather than a []struct: the FR-FCFS
	// inner loop scans only the channel/bank columns when hunting for a
	// row hit, so the packed int32 columns keep that scan inside a couple
	// of cache lines per 16 pending requests.
	doneBuf []clock.Time
	pendBuf []int
	chBuf   []int32
	bkBuf   []int32
	rowBuf  []uint64
	reqBuf  []Request
}

// ctrlObs holds the controller's observability instruments under the
// dram.* namespace; nil instruments make every bump a no-op.
type ctrlObs struct {
	requests  *obs.Counter
	rowHits   *obs.Counter
	rowMisses *obs.Counter
	bytes     *obs.Counter
}

// Instrument registers the controller's metrics (dram.*) with reg. The
// dram.bytes counter advances by one line per serviced request, so
// per-epoch deltas divided by the epoch length give achieved bandwidth.
// A nil registry detaches the instruments.
func (c *Controller) Instrument(reg *obs.Registry) {
	c.InstrumentPrefix(reg, "dram")
}

// InstrumentPrefix is Instrument under a caller-chosen namespace, for
// controllers embedded in another device (an HBM stack registers its
// banked-controller metrics as memtech.hbm.*).
func (c *Controller) InstrumentPrefix(reg *obs.Registry, prefix string) {
	c.obs = ctrlObs{
		requests:  reg.Counter(prefix + ".requests"),
		rowHits:   reg.Counter(prefix + ".row_hits"),
		rowMisses: reg.Counter(prefix + ".row_misses"),
		bytes:     reg.Counter(prefix + ".bytes"),
	}
}

// New returns a controller with all banks closed.
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, channels: make([]channel, cfg.Channels)}
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
	ch := &c.channels[chIdx]
	bk := &ch.banks[bkIdx]
	c.stats.Requests++
	c.obs.requests.Inc()
	c.obs.bytes.Add(uint64(c.cfg.LineBytes))

	start := clock.Max(at, bk.busy)
	var access, occupancy clock.Duration
	ccd := c.cfg.TCCD
	if ccd == 0 {
		ccd = c.cfg.TCAS
	}
	if bk.rowValid && bk.openRow == row {
		c.stats.RowHits++
		c.obs.rowHits.Inc()
		access = c.cfg.TCAS
		occupancy = ccd
	} else {
		c.stats.RowMisses++
		c.obs.rowMisses.Inc()
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
// batch: at each step it picks, among requests that have arrived, one
// whose target row is open in its bank; if none, the oldest request.
// The returned slice is the controller's scratch buffer: it is valid
// until the next SubmitBatch or TransferTime call.
func (c *Controller) SubmitBatch(reqs []Request) []clock.Time {
	if cap(c.doneBuf) < len(reqs) {
		c.doneBuf = make([]clock.Time, len(reqs))
	}
	done := c.doneBuf[:len(reqs)]
	if len(reqs) == 0 {
		return done
	}
	if c.cfg.Scheduling == FCFS {
		for i, r := range reqs {
			done[i] = c.service(r.Addr, r.Arrival)
		}
		return done
	}
	n := len(reqs)
	if cap(c.pendBuf) < n {
		c.pendBuf = make([]int, n)
		c.chBuf = make([]int32, n)
		c.bkBuf = make([]int32, n)
		c.rowBuf = make([]uint64, n)
	}
	pending := c.pendBuf[:n]
	chs, bks, rows := c.chBuf[:n], c.bkBuf[:n], c.rowBuf[:n]
	// The address decomposition is static, so computing it once per
	// request (instead of once per scheduling step) cannot change which
	// request each step picks — only bank open-row state evolves.
	for i := range reqs {
		pending[i] = i
		ch, bk, row := c.mapAddr(reqs[i].Addr)
		chs[i], bks[i], rows[i] = int32(ch), int32(bk), row
	}
	for len(pending) > 0 {
		pick := -1
		// First ready: a pending request whose row is open in its bank.
		for pi, idx := range pending {
			bk := &c.channels[chs[idx]].banks[bks[idx]]
			if bk.rowValid && bk.openRow == rows[idx] {
				pick = pi
				break
			}
		}
		if pick < 0 {
			// First come: oldest arrival (stable on submission order).
			pick = 0
			for pi := 1; pi < len(pending); pi++ {
				if reqs[pending[pi]].Arrival < reqs[pending[pick]].Arrival {
					pick = pi
				}
			}
		}
		idx := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		done[idx] = c.service(reqs[idx].Addr, reqs[idx].Arrival)
	}
	return done
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
	if uint64(cap(c.reqBuf)) < lines {
		c.reqBuf = make([]Request, lines)
	}
	reqs := c.reqBuf[:lines]
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
}
