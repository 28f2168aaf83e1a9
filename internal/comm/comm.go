// Package comm models the hardware communication mechanisms between the
// CPU and GPU memory systems (Section II, Table IV): PCI-E 2.0 bulk
// copies (CPU+GPU and GMAC), the PCI aperture of the LRB partially shared
// space, DMA through the shared memory controllers (Fusion), and the
// zero-cost ideal fabric (IDEAL-HETERO).
//
// The mechanisms are rows of one Kind table, and one Fabric times bulk
// data movement between the two PUs' memories by branching on its kind.
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

// Kind names a hardware communication mechanism.
type Kind uint8

const (
	// PCIe is synchronous PCI-E 2.0 copying (CPU+GPU/CUDA).
	PCIe Kind = iota
	// PCIeAsync is PCI-E with runtime-managed asynchronous copies (GMAC).
	PCIeAsync
	// Aperture is the LRB PCI aperture.
	Aperture
	// MemCtrl is DMA through the shared memory controllers (Fusion).
	MemCtrl
	// Ideal is free communication (IDEAL-HETERO).
	Ideal
	// NumKinds is the number of fabric kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"pcie", "pcie-async", "pci-aperture", "memctrl", "ideal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fabric(%d)", uint8(k))
}

// ParseKind returns the fabric kind named s (as produced by String).
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("comm: unknown fabric %q", s)
}

// MarshalText implements encoding.TextMarshaler so fabric kinds
// serialise as their names in declarative configs.
func (k Kind) MarshalText() ([]byte, error) {
	if k >= NumKinds {
		return nil, fmt.Errorf("comm: invalid fabric kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *Kind) UnmarshalText(b []byte) error {
	parsed, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// AllKinds returns the fabric kinds in declaration order.
func AllKinds() []Kind {
	return []Kind{PCIe, PCIeAsync, Aperture, MemCtrl, Ideal}
}

// RemoteDevice reports whether the fabric puts the GPU behind an I/O
// interconnect (PCI-E or the PCI aperture), where the device's page
// walks go through an IOMMU rather than a core MMU and every byte moved
// crosses off-chip serdes. The translation axis resolves its "auto"
// IOMMU mode through this, and the energy model its serdes term.
func (k Kind) RemoteDevice() bool {
	return k == PCIe || k == PCIeAsync || k == Aperture
}

// Stats counts fabric activity.
type Stats struct {
	Transfers uint64
	Bytes     uint64
	Busy      clock.Duration
}

// Fabric times bulk transfers between CPU and GPU memory on one kind of
// mechanism.
type Fabric struct {
	kind   Kind
	params config.CommParams
	// ctrl is the DRAM controller the memory-controller fabric issues its
	// DMA on; it belongs to the hierarchy.
	ctrl *dram.Controller
	// link is the PCI-E or aperture link concurrent transfers contend
	// for.
	link  clock.Resource
	stats Stats
}

// New returns a fabric of kind k with Table IV costs from params. The
// memory-controller fabric generates its accesses on ctrl; other kinds
// ignore it.
func New(k Kind, params config.CommParams, ctrl *dram.Controller) *Fabric {
	return &Fabric{kind: k, params: params, ctrl: ctrl}
}

// Async reports whether transfers may overlap computation (the GMAC
// asynchronous-copy property); a synchronous fabric blocks the
// initiating PU for the whole transfer. Aperture copies are synchronous
// API calls in the LRB model, and the paper models Fusion's transfers as
// ordinary (synchronous) memory traffic.
func (f *Fabric) Async() bool { return f.kind == PCIeAsync }

// Launch is the synchronous cost the initiating PU pays to start a
// transfer on an asynchronous fabric: the api-pci base latency of the
// driver call that enqueues the copy. Synchronous fabrics return zero,
// because Transfer itself blocks.
func (f *Fabric) Launch() clock.Duration {
	if !f.Async() {
		return 0
	}
	return f.params.Latency(isa.APIPCI, 0)
}

// Transfer moves bytes between the memories starting no earlier than now
// and returns the completion time.
func (f *Fabric) Transfer(bytes uint64, now clock.Time) clock.Time {
	f.stats.Transfers++
	f.stats.Bytes += bytes
	switch f.kind {
	case Ideal:
		return now
	case MemCtrl:
		// Read every source line and write every destination line
		// through the controllers. Program validation bounds bytes by
		// workload.MaxTransferBytes, so doubling it cannot wrap.
		done := f.ctrl.TransferTime(2*bytes, now)
		f.stats.Busy += done.Sub(now)
		return done
	}
	// PCI-E pays the api-pci base latency, the aperture the much smaller
	// api-tr one (it already provides a mapped common buffer); then the
	// payload serialises onto the shared link.
	inst := isa.APIPCI
	if f.kind == Aperture {
		inst = isa.APITransfer
	}
	base := f.params.Latency(inst, 0)
	ser := f.params.Latency(inst, clampU32(bytes)) - base
	_, done := f.link.Acquire(now.Add(base), ser)
	f.stats.Busy += ser
	return done
}

// Stats returns cumulative transfer counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Instrument binds the fabric's counts into b as registry counters under
// comm.*.
func (f *Fabric) Instrument(b *obs.Batch, reg *obs.Registry) {
	b.Bind(reg, "comm.transfers", &f.stats.Transfers)
	b.Bind(reg, "comm.bytes", &f.stats.Bytes)
	b.Bind(reg, "comm.busy_ps", (*uint64)(&f.stats.Busy))
}

func clampU32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// String summarises fabric stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("%d transfers, %d bytes, busy %v", s.Transfers, s.Bytes, s.Busy)
}
