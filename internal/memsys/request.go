// Package memsys models a memory access as an explicit transaction — a
// Request — flowing through an ordered chain of stages (translation,
// private caches, MSHR, ring hops, L3 tile, coherence, the memory
// backend, commit). Each stage charges its latency onto the request and
// Chain stamps its completion time, so every picosecond of an access is
// attributable to one stage and each stage is unit-testable in
// isolation. Alternatives slot in at fixed seams: a mesh instead of the
// ring through Interconnect, another memory technology through Backend.
// Package mem composes these stages into the Table II hierarchy.
package memsys

import (
	"fmt"

	"heteromem/internal/clock"
)

// PU identifies a processing unit issuing requests. The values mirror
// mem.PU (the two packages share the numbering so conversions are
// direct casts).
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

// StageID names a pipeline stage. Stamps are indexed by StageID, so the
// set is fixed here; the order of the constants matches the baseline
// pipeline order (coherence is a sub-stage invoked from private and L3
// lookups rather than a slot of its own).
type StageID uint8

const (
	// StageXlat is the address-translation front-end: the TLB probe and,
	// on a miss, the page walk. Present only when the translation axis
	// is on; with translation off no stage carries this id.
	StageXlat StageID = iota
	// StagePrivate is the PU's private level(s): L1, plus L2 on the CPU.
	StagePrivate
	// StageMSHR is the miss-status holding register check: a miss to a
	// line already in flight merges with the outstanding request.
	StageMSHR
	// StageRingReq is the request hop from the PU's ring stop to the
	// home L3 tile's stop.
	StageRingReq
	// StageCoherence is the directory consultation and any remote
	// invalidation round trip it requires.
	StageCoherence
	// StageL3 is the home L3 tile lookup.
	StageL3
	// StageDRAM is the ring hop to the memory controller, the DRAM
	// access, and the hop back to the home tile (skipped on an L3 hit).
	StageDRAM
	// StageRingResp is the data response hop from the home tile back to
	// the requesting PU's stop.
	StageRingResp
	// StageCommit fills the private levels and registers the miss in the
	// MSHR file.
	StageCommit
	// NumStages is the number of stage identifiers.
	NumStages
)

func (s StageID) String() string {
	switch s {
	case StageXlat:
		return "xlat"
	case StagePrivate:
		return "private"
	case StageMSHR:
		return "mshr"
	case StageRingReq:
		return "ring-req"
	case StageCoherence:
		return "coherence"
	case StageL3:
		return "l3"
	case StageDRAM:
		return "dram"
	case StageRingResp:
		return "ring-resp"
	case StageCommit:
		return "commit"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Flags records which events a request experienced on its way through
// the pipeline.
type Flags uint8

const (
	// FlagL1Hit: the access hit in the PU's first-level cache.
	FlagL1Hit Flags = 1 << iota
	// FlagL2Hit: the access hit in the CPU's private L2.
	FlagL2Hit
	// FlagMerged: the access merged with an outstanding miss in the MSHR.
	FlagMerged
	// FlagL3Hit: the access hit in the shared L3.
	FlagL3Hit
	// FlagDRAM: the access went all the way to DRAM.
	FlagDRAM
)

// Request is one memory transaction in flight. A request is issued at
// Issue and carries its running completion time in Now; each stage
// advances Now by the latency it charges and the chain stamps the
// post-stage time into Stamp, so Stamp[s]-Stamp[previous] is the latency
// attributable to stage s.
type Request struct {
	PU    PU
	Addr  uint64
	Line  uint64 // Addr rounded down to the cache-line base
	Write bool
	Issue clock.Time
	Now   clock.Time
	Flags Flags
	// L1Way reports which way of the PU's L1 holds the line after the
	// pipeline filled it (-1 when the request completed without an L1
	// fill, e.g. an MSHR merge or a bypassed install). Callers use it to
	// seed way memoizations without a post-fill set scan; it carries no
	// timing information.
	L1Way int8
	// Stamp holds each stage's completion time; zero for stages the
	// request never reached.
	Stamp [NumStages]clock.Time
}

// Start (re)initialises the request for a new access. Requests are
// reused across accesses, so every field is rewritten here.
func (r *Request) Start(pu PU, addr, line uint64, write bool, now clock.Time) {
	r.PU = pu
	r.Addr = addr
	r.Line = line
	r.Write = write
	r.Issue = now
	r.Now = now
	r.Flags = 0
	r.L1Way = -1
	r.Stamp = [NumStages]clock.Time{}
}

// Latency returns the request's total latency so far.
func (r *Request) Latency() clock.Duration { return r.Now.Sub(r.Issue) }
