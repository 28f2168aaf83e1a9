// Package trace defines the dynamic instruction trace format consumed by
// the simulator cores, together with binary serialization and summary
// statistics.
//
// The simulator is trace-driven in the style of MacSim (Section IV-A of
// the paper): cores replay a stream of dynamic instructions rather than
// fetching from a binary. Each record carries the minimal information a
// timing model needs — instruction class, memory address and size,
// dependency distances for the out-of-order window, branch outcome, and
// active SIMD lanes.
package trace

import (
	"fmt"
	"math"

	"heteromem/internal/isa"
)

// Inst is one dynamic instruction in a trace.
type Inst struct {
	// PC is the instruction address; the CPU's gshare predictor indexes
	// its tables with it.
	PC uint64
	// Addr is the effective virtual address for memory operations, the
	// first lane's address for SIMD memory operations, and the object
	// address for push and communication transfers.
	Addr uint64
	// Size is the access size in bytes for memory operations and the
	// transfer size for communication instructions (api-pci, api-tr).
	Size uint32
	// Kind classifies the instruction.
	Kind isa.Kind
	// Dep1 and Dep2 are backward distances (in dynamic instructions) to
	// up to two producers this instruction depends on; zero means no
	// dependency. The out-of-order model cannot begin executing an
	// instruction before its producers complete.
	Dep1, Dep2 uint16
	// Taken is the outcome of a Branch.
	Taken bool
	// Lanes is the number of active SIMD lanes (1..8) for SIMD kinds;
	// zero is treated as all 8 lanes active.
	Lanes uint8
	// PushLevel selects the target cache level for Push instructions:
	// 0 = private first-level, 1 = shared second-level, 2 = the GPU's
	// software-managed cache.
	PushLevel uint8
}

// Push target levels (values of PushLevel).
const (
	PushPrivate  = 0
	PushShared   = 1
	PushSoftware = 2
)

// ActiveLanes returns the number of active SIMD lanes, defaulting to the
// full 8-wide datapath when unset.
func (in Inst) ActiveLanes() int {
	if in.Lanes == 0 {
		return 8
	}
	return int(in.Lanes)
}

// lineBytes is the granule the simulator rounds a memory or push range
// out to (a cache line). Validate rejects a range whose rounded-out end
// would wrap past 2^64.
const lineBytes = 64

// Validate checks internal consistency of a single record.
func (in Inst) Validate() error {
	if !in.Kind.Valid() {
		return fmt.Errorf("trace: invalid kind %d", uint8(in.Kind))
	}
	if in.Kind.IsMem() && in.Size == 0 {
		return fmt.Errorf("trace: %v with zero size", in.Kind)
	}
	if (in.Kind.IsMem() || in.Kind.IsSoftwareCache() || in.Kind == isa.Push) &&
		in.Addr > math.MaxUint64-uint64(in.Size)-(lineBytes-1) {
		return fmt.Errorf("trace: %v range %#x+%d wraps the address space", in.Kind, in.Addr, in.Size)
	}
	if in.Lanes > 8 {
		return fmt.Errorf("trace: %d SIMD lanes exceeds datapath width 8", in.Lanes)
	}
	if in.Lanes != 0 && !in.Kind.IsSIMD() {
		return fmt.Errorf("trace: lane count on non-SIMD %v", in.Kind)
	}
	if in.PushLevel > PushSoftware {
		return fmt.Errorf("trace: push level %d out of range", in.PushLevel)
	}
	if in.PushLevel != 0 && in.Kind != isa.Push {
		return fmt.Errorf("trace: push level on non-push %v", in.Kind)
	}
	return nil
}

// Stream is an in-memory dynamic instruction trace.
type Stream []Inst

// Validate checks every record. Dependency distances may point before
// the start of the stream: such producers ran in an earlier phase and
// the cores treat them as long completed.
func (s Stream) Validate() error {
	for i, in := range s {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("inst %d: %w", i, err)
		}
	}
	return nil
}

// Stats summarises a trace.
type Stats struct {
	Total      int
	ByKind     map[isa.Kind]int
	MemOps     int
	MemBytes   uint64
	CommOps    int
	CommBytes  uint64
	Branches   int
	TakenRate  float64
	SIMDOps    int
	PushOps    int
	UniquePCs  int
	UniqueAddr int
}

// Summarize computes summary statistics for the stream.
func Summarize(s Stream) Stats {
	return SummarizeSource(NewCursor(s))
}
