// Package comm models the hardware communication mechanisms between the
// CPU and GPU memory systems (Section II, Table IV): PCI-E 2.0 bulk
// copies (CPU+GPU and GMAC), the PCI aperture of the LRB partially shared
// space, DMA through the shared memory controllers (Fusion), and the
// zero-cost ideal fabric (IDEAL-HETERO).
//
// A Fabric times bulk data movement between the two PUs' memories.
// Programming-model overheads that are not bulk movement — ownership
// acquire/release, first-touch page faults — are modeled as special
// instructions executed by the cores, not here.
package comm

import (
	"fmt"

	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/dram"
	"heteromem/internal/isa"
	"heteromem/internal/obs"
)

// Fabric times bulk transfers between CPU and GPU memory.
type Fabric interface {
	// Name identifies the fabric in reports.
	Name() string
	// Transfer moves bytes between the memories starting no earlier than
	// now and returns the completion time.
	Transfer(bytes uint64, now clock.Time) clock.Time
	// Async reports whether transfers may overlap computation (the GMAC
	// asynchronous-copy property); a synchronous fabric blocks the
	// initiating PU for the whole transfer.
	Async() bool
	// Launch is the synchronous cost the initiating PU pays to start a
	// transfer on an asynchronous fabric (the driver call that enqueues
	// the copy). Synchronous fabrics return zero: Transfer itself blocks.
	Launch() clock.Duration
	// Stats returns cumulative transfer counters.
	Stats() Stats
	// Instrument binds the fabric's counts into b as registry counters
	// under comm.*.
	Instrument(b *obs.Batch, reg *obs.Registry)
	// Reset returns the fabric to its just-constructed state (idle link,
	// zeroed statistics).
	Reset()
}

// Stats counts fabric activity.
type Stats struct {
	Transfers uint64
	Bytes     uint64
	Busy      clock.Duration
}

// bind ties the counts to registry counters under comm.*. Every fabric
// kind binds the same names: a simulator has exactly one fabric.
func (s *Stats) bind(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "comm.transfers", &s.Transfers)
	b.Bind(reg, "comm.bytes", &s.Bytes)
	b.Bind(reg, "comm.busy_ps", (*uint64)(&s.Busy))
}

// PCIe is the PCI-E 2.0 fabric: each transfer pays the api-pci base
// latency plus serialisation at the link rate, and concurrent transfers
// contend for the link.
type PCIe struct {
	params config.CommParams
	link   *clock.Resource
	async  bool
	stats  Stats
}

// NewPCIe returns a PCI-E fabric with Table IV costs. async selects the
// GMAC behaviour (asynchronous copies the runtime overlaps with
// computation).
func NewPCIe(params config.CommParams, async bool) *PCIe {
	return &PCIe{params: params, link: new(clock.Resource), async: async}
}

// Name implements Fabric.
func (p *PCIe) Name() string {
	if p.async {
		return "pcie-async"
	}
	return "pcie"
}

// Async implements Fabric.
func (p *PCIe) Async() bool { return p.async }

// Launch implements Fabric: enqueuing an asynchronous copy costs the
// api-pci base latency on the host; a synchronous copy pays everything
// inside Transfer instead.
func (p *PCIe) Launch() clock.Duration {
	if !p.async {
		return 0
	}
	return p.params.Latency(isa.APIPCI, 0)
}

// Stats implements Fabric.
func (p *PCIe) Stats() Stats { return p.stats }

// Instrument implements Fabric.
func (p *PCIe) Instrument(b *obs.Batch, reg *obs.Registry) { p.stats.bind(b, reg) }

// Reset implements Fabric.
func (p *PCIe) Reset() {
	p.link.Reset()
	p.stats = Stats{}
}

// Transfer implements Fabric: base api-pci latency, then the payload
// serialises onto the shared link.
func (p *PCIe) Transfer(bytes uint64, now clock.Time) clock.Time {
	base := p.params.Latency(isa.APIPCI, 0)
	ser := p.params.Latency(isa.APIPCI, clampU32(bytes)) - base
	start, done := p.link.Acquire(now.Add(base), ser)
	_ = start
	p.stats.Transfers++
	p.stats.Bytes += bytes
	p.stats.Busy += ser
	return done
}

// Aperture is the LRB PCI-aperture fabric: transfers into the partially
// shared space pay the much smaller api-tr base cost plus link-rate
// serialisation, because the aperture already provides a mapped common
// buffer with asynchronous copy support.
type Aperture struct {
	params config.CommParams
	link   *clock.Resource
	stats  Stats
}

// NewAperture returns a PCI-aperture fabric with Table IV costs.
func NewAperture(params config.CommParams) *Aperture {
	return &Aperture{params: params, link: new(clock.Resource)}
}

// Name implements Fabric.
func (a *Aperture) Name() string { return "pci-aperture" }

// Async implements Fabric: aperture copies are synchronous API calls in
// the LRB model.
func (a *Aperture) Async() bool { return false }

// Launch implements Fabric.
func (a *Aperture) Launch() clock.Duration { return 0 }

// Stats implements Fabric.
func (a *Aperture) Stats() Stats { return a.stats }

// Instrument implements Fabric.
func (a *Aperture) Instrument(b *obs.Batch, reg *obs.Registry) { a.stats.bind(b, reg) }

// Reset implements Fabric.
func (a *Aperture) Reset() {
	a.link.Reset()
	a.stats = Stats{}
}

// Transfer implements Fabric.
func (a *Aperture) Transfer(bytes uint64, now clock.Time) clock.Time {
	base := a.params.Latency(isa.APITransfer, 0)
	ser := a.params.Latency(isa.APITransfer, clampU32(bytes)) - base
	_, done := a.link.Acquire(now.Add(base), ser)
	a.stats.Transfers++
	a.stats.Bytes += bytes
	a.stats.Busy += ser
	return done
}

// MemController is the Fusion fabric: CPU and GPU memories hang off the
// same memory controllers, so a transfer is a DMA that reads the source
// and writes the destination — memory accesses for every byte moved, but
// no PCI-E latency.
type MemController struct {
	ctrl  *dram.Controller
	stats Stats
}

// NewMemController returns a memory-controller fabric backed by ctrl.
func NewMemController(ctrl *dram.Controller) *MemController {
	return &MemController{ctrl: ctrl}
}

// Name implements Fabric.
func (m *MemController) Name() string { return "memctrl" }

// Async implements Fabric: the paper models Fusion's transfers as
// ordinary (synchronous) memory traffic.
func (m *MemController) Async() bool { return false }

// Launch implements Fabric.
func (m *MemController) Launch() clock.Duration { return 0 }

// Stats implements Fabric.
func (m *MemController) Stats() Stats { return m.stats }

// Instrument implements Fabric.
func (m *MemController) Instrument(b *obs.Batch, reg *obs.Registry) { m.stats.bind(b, reg) }

// Reset implements Fabric: the controller belongs to the hierarchy,
// which resets it; only the fabric's own counters clear here.
func (m *MemController) Reset() { m.stats = Stats{} }

// Transfer implements Fabric: read every source line and write every
// destination line through the controllers. Program validation bounds
// bytes by workload.MaxTransferBytes, so doubling it cannot wrap.
func (m *MemController) Transfer(bytes uint64, now clock.Time) clock.Time {
	done := m.ctrl.TransferTime(2*bytes, now)
	m.stats.Transfers++
	m.stats.Bytes += bytes
	m.stats.Busy += done.Sub(now)
	return done
}

// Ideal is the zero-cost fabric of IDEAL-HETERO and the Figure 7
// experiment.
type Ideal struct {
	stats Stats
}

// NewIdeal returns an ideal fabric.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements Fabric.
func (i *Ideal) Name() string { return "ideal" }

// Async implements Fabric: nothing to overlap.
func (i *Ideal) Async() bool { return false }

// Launch implements Fabric.
func (i *Ideal) Launch() clock.Duration { return 0 }

// Stats implements Fabric.
func (i *Ideal) Stats() Stats { return i.stats }

// Instrument implements Fabric.
func (i *Ideal) Instrument(b *obs.Batch, reg *obs.Registry) { i.stats.bind(b, reg) }

// Reset implements Fabric.
func (i *Ideal) Reset() { i.stats = Stats{} }

// Transfer implements Fabric: free.
func (i *Ideal) Transfer(bytes uint64, now clock.Time) clock.Time {
	i.stats.Transfers++
	i.stats.Bytes += bytes
	return now
}

func clampU32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

var (
	_ Fabric = (*PCIe)(nil)
	_ Fabric = (*Aperture)(nil)
	_ Fabric = (*MemController)(nil)
	_ Fabric = (*Ideal)(nil)
)

// String summarises fabric stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("%d transfers, %d bytes, busy %v", s.Transfers, s.Bytes, s.Busy)
}
