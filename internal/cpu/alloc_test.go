package cpu

import (
	"testing"

	"heteromem/internal/isa"
	"heteromem/internal/trace"
)

// TestRunAllocBudget pins the replay hot path at zero heap allocations
// per Run: the core reuses its one Execution and instructions are
// pulled through a reused cursor, so replay cost is independent of trace
// length. A regression here silently reintroduces O(N)-alloc replays.
func TestRunAllocBudget(t *testing.T) {
	c := newCore(&fakeMem{lat: 100}, nil)
	s := make(trace.Stream, 10000)
	for i := range s {
		switch i % 5 {
		case 0:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.Load, Addr: uint64(i) * 64, Size: 8}
		case 1:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.ALU, Dep1: 1}
		case 2:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.Branch, Taken: i%3 == 0}
		case 3:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.Store, Addr: uint64(i) * 8, Size: 8, Dep1: 2}
		default:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.FP, Dep1: 1}
		}
	}
	cur := trace.NewCursor(s)
	avg := testing.AllocsPerRun(20, func() {
		cur.Reset()
		c.Run(cur, 0)
	})
	if avg != 0 {
		t.Errorf("cpu.Core.Run allocates %.1f objects per replay, want 0", avg)
	}
}
