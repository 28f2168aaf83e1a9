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
	cfg Config
	// banks holds each channel's BanksPerChannel banks in turn; buses[ch]
	// is channel ch's shared data bus.
	banks []bank
	buses []clock.Resource
	stats Stats
	// bytes is the data moved: one line per serviced request.
	bytes uint64

	// held is TransferTime's per-bank scratch, one entry per bank of a
	// channel.
	held []uint64
}

// Instrument binds the controller's counts into b as registry counters
// under prefix: "dram" for the hierarchy's DDR3 controllers, and the
// device's own namespace for a controller embedded in another device (an
// HBM stack registers memtech.hbm.*). The prefix.bytes counter advances
// by one line per serviced request, so per-epoch deltas divided by the
// epoch length give achieved bandwidth. The owner of b flushes it.
func (c *Controller) Instrument(b *obs.Batch, reg *obs.Registry, prefix string) {
	b.Bind(reg, prefix+".requests", &c.stats.Requests)
	b.Bind(reg, prefix+".row_hits", &c.stats.RowHits)
	b.Bind(reg, prefix+".row_misses", &c.stats.RowMisses)
	b.Bind(reg, prefix+".bytes", &c.bytes)
}

// New returns a controller with all banks closed.
func New(cfg Config) (*Controller, error) { return NewIn(nil, cfg) }

// NewIn is New with the bank, bus and scratch arrays carved from the
// arena (nil falls back to the heap). The arena may be Reset only once
// the controller is dropped.
func NewIn(a *arena.Arena, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:   cfg,
		banks: arena.Make[bank](a, cfg.Channels*cfg.BanksPerChannel),
		buses: arena.Make[clock.Resource](a, cfg.Channels),
		held:  arena.Make[uint64](a, cfg.BanksPerChannel),
	}, nil
}

// channelBanks returns channel ch's banks.
func (c *Controller) channelBanks(ch int) []bank {
	n := c.cfg.BanksPerChannel
	return c.banks[ch*n : (ch+1)*n]
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
	return c.serviceAt(chIdx, bkIdx, row, at)
}

// serviceAt is service on an already decomposed address.
func (c *Controller) serviceAt(chIdx, bkIdx int, row uint64, at clock.Time) clock.Time {
	bk := &c.channelBanks(chIdx)[bkIdx]
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
	_, done := c.buses[chIdx].Acquire(dataReady, c.cfg.TBurst)
	return done
}

// SubmitBatch schedules a batch of requests that are simultaneously
// visible to the controller and returns each request's completion time,
// in the order the requests were given. Under FRFCFS the controller
// reorders within the batch: at each step it picks the lowest-indexed
// request whose target row is open in its bank; if none, the oldest
// request (lowest index on equal arrivals). Each pick rescans the
// pending requests, so a batch costs time quadratic in its size: this is
// the scheduler's plain statement, used by the scheduling ablation and
// as the oracle TransferTime is checked against.
func (c *Controller) SubmitBatch(reqs []Request) []clock.Time {
	done := make([]clock.Time, len(reqs))
	if c.cfg.Scheduling == FCFS {
		for i, r := range reqs {
			done[i] = c.service(r.Addr, r.Arrival)
		}
		return done
	}
	type target struct {
		bank *bank
		row  uint64
	}
	pending, to := make([]int, len(reqs)), make([]target, len(reqs))
	for i, r := range reqs {
		ch, bk, row := c.mapAddr(r.Addr)
		pending[i], to[i] = i, target{&c.channelBanks(ch)[bk], row}
	}
	for len(pending) > 0 {
		pick := -1
		for pi, idx := range pending {
			if b := to[idx].bank; b.rowValid && b.openRow == to[idx].row {
				pick = pi
				break
			}
		}
		if pick < 0 {
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

// TransferTime returns when a size-byte block transfer through the
// controller, starting at now, completes: the DMA-style copy of the
// Fusion communication path. The transfer is the request list of lines
// 0 … n−1, all arriving at now, and TransferTime services it exactly as
// SubmitBatch would, keeping only per-bank state, so a transfer of any
// size allocates nothing.
//
// Three properties of that list make this possible. Channels share no
// state, so each channel's share is scheduled on its own. Under mapAddr a
// line's row never decreases with its index, so each bank's requests
// form one run per row. And with every request arriving at once, FR-FCFS
// first serves, in index order, the runs of the rows the banks hold open
// as the transfer begins; after that no bank has a row hit until a
// first-come pick opens a row, and then only that bank has one, so the
// pick's whole run follows it. FCFS serves the lines in index order.
func (c *Controller) TransferTime(size uint64, now clock.Time) clock.Time {
	if size == 0 {
		return now
	}
	lines := (size-1)/uint64(c.cfg.LineBytes) + 1
	done := now
	for ch := range c.buses {
		done = clock.Max(done, c.transfer(ch, lines, now))
	}
	return done
}

// transfer services channel chIdx's share of a transfer of lines
// 0 … lines−1 arriving at now and returns when the last one is done. The
// share's j-th line is transfer line chIdx+j·Channels; it lies in row
// j/perRow and in bank j mod stride, or that plus half when the bank
// partition bit of its address is set.
func (c *Controller) transfer(chIdx int, lines uint64, now clock.Time) clock.Time {
	chans := uint64(c.cfg.Channels)
	if uint64(chIdx) >= lines {
		return now
	}
	banks := c.channelBanks(chIdx)
	n := (lines-1-uint64(chIdx))/chans + 1
	stride, half := uint64(len(banks)), uint64(0)
	if c.cfg.PartitionRegionBit != 0 && stride >= 2 {
		stride /= 2
		half = stride
	}
	perRow := stride * uint64(c.cfg.RowBytes/c.cfg.LineBytes)
	rows := (n-1)/perRow + 1
	// bank maps line j, at position b0 of its stride, to its bank.
	bank := func(j, b0 uint64) int {
		if half != 0 {
			addr := (uint64(chIdx) + j*chans) * uint64(c.cfg.LineBytes)
			b0 += half * (addr >> c.cfg.PartitionRegionBit & 1)
		}
		return int(b0)
	}
	done := now
	// eachLine calls visit on every line of row r in index order.
	eachLine := func(r uint64, visit func(j, b0 uint64)) {
		b0 := uint64(0)
		for j, hi := r*perRow, min(n, (r+1)*perRow); j < hi; j++ {
			visit(j, b0)
			if b0++; b0 == stride {
				b0 = 0
			}
		}
	}
	serve := func(b int, r uint64) {
		done = clock.Max(done, c.serviceAt(chIdx, b, r, now))
	}
	if c.cfg.Scheduling == FCFS {
		for r := uint64(0); r < rows; r++ {
			eachLine(r, func(j, b0 uint64) { serve(bank(j, b0), r) })
		}
		return done
	}

	// held[b] is one more than the row bank b holds open as the transfer
	// begins, if the transfer reaches that row, else 0.
	held := c.held
	for b := range banks {
		held[b] = 0
		if bk := &banks[b]; bk.rowValid && bk.openRow < rows {
			held[b] = bk.openRow + 1
		}
	}
	// First the runs of the held rows, lowest row first. They are row
	// hits, which leave every bank's open row as it is.
	for r := uint64(0); ; r++ {
		next := rows
		for _, h := range held {
			if h > r && h-1 < next {
				next = h - 1
			}
		}
		if next == rows {
			break
		}
		r = next
		eachLine(r, func(j, b0 uint64) {
			if b := bank(j, b0); held[b] == r+1 {
				serve(b, r)
			}
		})
	}
	// Then row by row: the first pending line opens its bank's row, and
	// the rest of the bank's run in that row follows it. A bank whose run
	// is done holds this row open, or held it when the transfer began.
	for r := uint64(0); r < rows; r++ {
		hi := min(n, (r+1)*perRow)
		eachLine(r, func(j, b0 uint64) {
			b := bank(j, b0)
			if bk := &banks[b]; held[b] == r+1 || bk.rowValid && bk.openRow == r {
				return
			}
			for k := j; k < hi; k += stride {
				if bank(k, b0) == b {
					serve(b, r)
				}
			}
		})
	}
	return done
}
