package cpu

import (
	"runtime"
	"testing"

	"heteromem/internal/config"
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

// TestNewAllocBudget pins what building a core allocates: the replay
// rings are sized by the ROB, not by the largest trace dependency
// distance, so a 128-entry ROB costs two 256-entry rings next to the
// trace lookahead buffer. The core is built without a branch predictor,
// whose gshare table the configuration sizes (16 KiB at Table II's 14
// bits) and which this budget does not cover.
func TestNewAllocBudget(t *testing.T) {
	cfg := config.BaselineCPU()
	cfg.PredictorTableBits = 0
	// TotalAlloc counts every goroutine's allocations, so the test pins
	// one P, as testing.AllocsPerRun does, and averages over builds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const builds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		runtime.KeepAlive(New(cfg, &fakeMem{}, zeroComm))
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got >= 16<<10 {
		t.Errorf("cpu.New allocates %d bytes, want under 16 KiB", got)
	} else {
		t.Logf("cpu.New: %d bytes", got)
	}
}
