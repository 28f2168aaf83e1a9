package trace

import "heteromem/internal/isa"

// Source is a pull-based cursor over a dynamic instruction stream. It is
// the simulator's replay interface: cores pull instructions in batches,
// so a trace never needs to be materialized in memory — a Source may
// synthesize records on demand (the workload package's kernel
// generators), decode them incrementally, or walk an in-memory Stream.
//
// The contract mirrors a restartable iterator:
//
//   - NextBatch fills dst from the cursor position and returns how many
//     instructions it wrote, zero once the pass is exhausted. The
//     delivered sequence does not depend on the lengths of the dst
//     slices it is pulled into.
//   - Reset rewinds the cursor to the first instruction; a reset source
//     delivers the identical sequence again (deterministic replay is a
//     core requirement for a design-space study).
//   - Len returns the total number of instructions the source delivers
//     over a full pass, independent of the cursor position.
//
// A Source is not safe for concurrent use; callers that share the
// underlying definition across goroutines create one Source per consumer.
type Source interface {
	NextBatch(dst []Inst) int
	Reset()
	Len() int
}

// batchLen is the batch the package's own consumers pull a source in.
const batchLen = 256

// Cursor adapts an in-memory Stream to the Source interface.
type Cursor struct {
	s Stream
	i int
}

// NewCursor returns a cursor positioned at the start of s.
func NewCursor(s Stream) *Cursor { return &Cursor{s: s} }

// Bind repositions the cursor at the start of s and returns it, so one
// cursor value can be reused across many short streams without
// allocating.
func (c *Cursor) Bind(s Stream) *Cursor {
	c.s, c.i = s, 0
	return c
}

// NextBatch copies up to len(dst) instructions from the cursor position.
func (c *Cursor) NextBatch(dst []Inst) int {
	n := copy(dst, c.s[c.i:])
	c.i += n
	return n
}

// Reset rewinds to the first instruction.
func (c *Cursor) Reset() { c.i = 0 }

// Len returns the total stream length.
func (c *Cursor) Len() int { return len(c.s) }

// Materialize drains src from its current position into a Stream sized
// by Len. It is the bridge from streaming sources back to the in-memory
// form that serialization and the golden tests use.
func Materialize(src Source) Stream {
	if src == nil {
		return nil
	}
	out := make(Stream, src.Len())
	n := 0
	for n < len(out) {
		k := src.NextBatch(out[n:])
		if k == 0 {
			break
		}
		n += k
	}
	return out[:n]
}

// SummarizeSource computes summary statistics by streaming src from its
// current position, without materializing the trace.
func SummarizeSource(src Source) Stats {
	st := Stats{ByKind: make(map[isa.Kind]int)}
	pcs := make(map[uint64]struct{})
	addrs := make(map[uint64]struct{})
	taken := 0
	var buf [batchLen]Inst
	for {
		n := src.NextBatch(buf[:])
		if n == 0 {
			break
		}
		for _, in := range buf[:n] {
			st.Total++
			st.ByKind[in.Kind]++
			pcs[in.PC] = struct{}{}
			switch {
			case in.Kind.IsMem():
				st.MemOps++
				st.MemBytes += uint64(in.Size)
				addrs[in.Addr] = struct{}{}
			case in.Kind.IsComm():
				st.CommOps++
				st.CommBytes += uint64(in.Size)
			case in.Kind == isa.Branch:
				st.Branches++
				if in.Taken {
					taken++
				}
			case in.Kind == isa.Push:
				st.PushOps++
			}
			if in.Kind.IsSIMD() {
				st.SIMDOps++
			}
		}
	}
	if st.Branches > 0 {
		st.TakenRate = float64(taken) / float64(st.Branches)
	}
	st.UniquePCs = len(pcs)
	st.UniqueAddr = len(addrs)
	return st
}
