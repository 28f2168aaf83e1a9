package gpu

import (
	"runtime"
	"testing"

	"heteromem/internal/isa"
	"heteromem/internal/trace"
)

// TestRunAllocBudget pins the GPU replay hot path at zero heap
// allocations per Run, mirroring the CPU core's budget: replay cost must
// stay independent of trace length.
func TestRunAllocBudget(t *testing.T) {
	c := newCore(newFake(100))
	s := make(trace.Stream, 10000)
	for i := range s {
		switch i % 4 {
		case 0:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.SIMDLoad, Addr: uint64(i) * 32, Size: 32, Lanes: 8}
		case 1:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.SIMDFP, Dep1: 1}
		case 2:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.Branch, Taken: true}
		default:
			s[i] = trace.Inst{PC: uint64(i) * 4, Kind: isa.SIMDStore, Addr: uint64(i) * 32, Size: 32, Lanes: 8, Dep1: 2}
		}
	}
	cur := trace.NewCursor(s)
	avg := testing.AllocsPerRun(20, func() {
		cur.Reset()
		c.Run(cur, 0)
	})
	if avg != 0 {
		t.Errorf("gpu.Core.Run allocates %.1f objects per replay, want 0", avg)
	}
}

// TestNewAllocBudget pins what building a core allocates: the completion
// ring starts at ringMin entries and grows only when a replay needs it,
// so construction is the ring plus the trace lookahead buffer.
func TestNewAllocBudget(t *testing.T) {
	// TotalAlloc counts every goroutine's allocations, so the test pins
	// one P, as testing.AllocsPerRun does, and averages over builds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const builds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		runtime.KeepAlive(newCore(newFake(0)))
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got >= 16<<10 {
		t.Errorf("gpu.New allocates %d bytes, want under 16 KiB", got)
	} else {
		t.Logf("gpu.New: %d bytes", got)
	}
}
