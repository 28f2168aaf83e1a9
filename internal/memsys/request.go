// Package memsys holds the stages of the one path an L1 miss takes
// through the memory hierarchy: the private L2, the MSHR merge check,
// the ring hop to the home L3 tile, the L3 lookup (with the coherence
// directory), the fetch from the memory technology behind it, the hop
// back and the commit into the private levels. Chain runs them in that
// order on a reusable Request that carries the running completion time.
// Address translation (TranslationStage) and coherence (CoherenceStage)
// are invoked by the hierarchy and the stages rather than holding a
// slot of their own. Alternatives slot in at fixed seams: a mesh instead
// of the ring through Interconnect, another memory technology through
// Backend. Package mem composes these stages into the Table II
// hierarchy and serves L1 hits before the chain is entered.
package memsys

import (
	"fmt"

	"heteromem/internal/clock"
)

// PU identifies a processing unit issuing requests; package mem
// re-exports it as mem.PU.
type PU uint8

const (
	// CPU is the out-of-order general-purpose core.
	CPU PU = iota
	// GPU is the in-order SIMD accelerator core.
	GPU
	// NumPUs is the number of processing units.
	NumPUs
)

func (p PU) String() string {
	switch p {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("pu(%d)", uint8(p))
	}
}

// Request is one memory transaction in flight: an L1 miss on its way
// through the shared path. Each stage advances Now by the latency it
// charges, so Now is the request's completion time once Chain.Run
// returns.
type Request struct {
	PU    PU
	Addr  uint64
	Line  uint64 // Addr rounded down to the cache-line base
	Write bool
	Now   clock.Time
}

// Start (re)initialises the request for a new access. Requests are
// reused across accesses, so every field is rewritten here.
func (r *Request) Start(pu PU, addr, line uint64, write bool, now clock.Time) {
	*r = Request{PU: pu, Addr: addr, Line: line, Write: write, Now: now}
}
