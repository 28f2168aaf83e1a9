// Package model isolates the programming-model protocols of the design
// space: the runtime behaviours a memory model imposes at phase
// boundaries — ownership acquire/release around kernel launches (LRB),
// first-touch page faults on freshly shared data (lib-pf), ADSM's lazy
// asynchronous copies with return synchronisation (GMAC), and the plain
// explicit-copy discipline of disjoint spaces (CUDA, Fusion).
//
// The protocols are rows of one Kind table. A Protocol owns all of the
// run's model state (pending acquires, queued faults, the async-ready
// horizon) and exposes hook points the simulator calls at phase
// boundaries:
//
//   - KernelEntry — start of a parallel phase; returns the GPU prologue
//     stream (ownership acquire, queued first-touch faults).
//   - KernelReturn — a device-to-host transfer phase; a protocol that
//     keeps results in a host-addressable space elides the bulk copy and
//     charges its own return cost instead.
//   - BeforeTransfer — ahead of a host-to-device bulk copy; charges
//     release costs and queues kernel-entry work.
//   - AfterTransfer — after a bulk copy is issued; tracks the completion
//     horizon of asynchronous copies.
//   - SyncPoint — a synchronisation point (program end); blocks until
//     outstanding asynchronous copies land.
//
// The hooks branch on the kind's predicates (UsesOwnership,
// FirstTouchFaults, ElidesDeviceToHost), which are the one definition of
// each policy. Protocols act on the machine through the Env interface
// the simulator implements, so the simulator stays free of per-model
// branches and every kind composes with any address-space model and
// fabric the design space offers.
package model

import (
	"fmt"

	"heteromem/internal/addrspace"
	"heteromem/internal/clock"
	"heteromem/internal/comm"
	"heteromem/internal/mem"
	"heteromem/internal/obs"
	"heteromem/internal/trace"
)

// Env is the surface of the simulated machine a protocol acts through.
// All mutation of shared simulator state (result counters, CPU stream
// execution, cache flushes) goes through here, so protocol state stays
// inside the protocol.
type Env interface {
	// SharedHandle returns the run's shared-space object (zero Size when
	// the program has none under the current model).
	SharedHandle() addrspace.Object
	// Space is the address space the run allocates in; protocols walk
	// ownership transfers on it so space statistics reflect handovers.
	Space() *addrspace.Space
	// FlushPrivate writes back and invalidates pu's private caches —
	// release consistency's obligation at ownership handovers.
	FlushPrivate(pu mem.PU)
	// RunCPUStream executes the instruction stream on the CPU core
	// starting at now, accumulates its statistics into the current
	// result, and returns the completion time.
	RunCPUStream(st trace.Stream, now clock.Time) clock.Time
	// Fabric is the hardware communication mechanism of the run.
	Fabric() *comm.Fabric
	// Tracer returns the attached tracer; nil-safe, may be nil.
	Tracer() *obs.Tracer
	// ChargeComm adds d to the run's communication time.
	ChargeComm(d clock.Duration)
	// CountOwnershipOp records one injected acquire/release action.
	CountOwnershipOp()
	// CountPageFaults records n lib-pf events.
	CountPageFaults(n int)
}

// Kind names a built-in protocol.
type Kind uint8

const (
	// ExplicitCopy is the CUDA/Fusion discipline: every data exchange is
	// an explicit bulk copy, including transferring results back.
	ExplicitCopy Kind = iota
	// Ownership is acquire/release ownership control over a partially
	// shared space without first-touch faults — the pure PAS semantics of
	// the Figure 7 experiment.
	Ownership
	// OwnershipFirstTouch is the full LRB model: ownership control plus
	// lib-pf page faults when the GPU first touches freshly shared data.
	OwnershipFirstTouch
	// ADSMLazy is GMAC's asymmetric-distributed-shared-memory model:
	// asynchronous copies overlapped with computation and a return
	// synchronisation that elides the copy-back.
	ADSMLazy
	// Ideal is the no-op protocol of a unified, coherent machine: no
	// ownership, no faults, no elision — hardware does everything.
	Ideal
	// NumKinds is the number of built-in protocols.
	NumKinds
)

var kindNames = [NumKinds]string{
	"explicit-copy", "ownership", "ownership-first-touch", "adsm", "ideal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("protocol(%d)", uint8(k))
}

// ParseKind returns the protocol kind named s (as produced by String).
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("model: unknown protocol %q", s)
}

// MarshalText implements encoding.TextMarshaler so kinds serialise as
// their names in declarative configs.
func (k Kind) MarshalText() ([]byte, error) {
	if k >= NumKinds {
		return nil, fmt.Errorf("model: invalid protocol kind %d", uint8(k))
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

// AllKinds returns the built-in protocols in declaration order.
func AllKinds() []Kind {
	return []Kind{ExplicitCopy, Ownership, OwnershipFirstTouch, ADSMLazy, Ideal}
}

// UsesOwnership reports whether the protocol injects acquire/release
// ownership actions, which require a space with ownership control.
func (k Kind) UsesOwnership() bool {
	return k == Ownership || k == OwnershipFirstTouch
}

// FirstTouchFaults reports whether the protocol charges lib-pf on the
// GPU's first touch of freshly shared data.
func (k Kind) FirstTouchFaults() bool { return k == OwnershipFirstTouch }

// ElidesDeviceToHost reports whether the protocol skips device-to-host
// copies because results already live in a host-addressable space.
func (k Kind) ElidesDeviceToHost() bool {
	return k == Ownership || k == OwnershipFirstTouch || k == ADSMLazy
}

// New returns a fresh protocol of the given kind. faultGranularity sets
// the page size behind first-touch faults: one lib-pf per granule of
// freshly shared data, zero meaning one fault per object (large pages);
// kinds without faults ignore it.
func New(k Kind, faultGranularity uint64) (*Protocol, error) {
	if k >= NumKinds {
		return nil, fmt.Errorf("model: unknown protocol kind %d", uint8(k))
	}
	p := &Protocol{kind: k}
	if k.FirstTouchFaults() {
		p.granularity = faultGranularity
		p.touched = make(map[uint64]bool)
	}
	return p, nil
}
