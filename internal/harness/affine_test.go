package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"heteromem/internal/memtech"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

// mixedGrid is a design-point list over all four memory technologies
// and two translation presets. Its order matters on one worker, which
// runs each kernel's cells in list order: a DRAM-cache point is followed
// by a DRAM point, whose simulator is carved from the slabs the
// DRAM-cache simulator dirtied, and then by a DRAM cache of the same
// geometry.
// Construction carves the same sizes in the same order up to the
// directory, so the third point's directory lands on the first one's.
// The last four points run on the memory-controller fabric, whose block
// transfers go through the DRAM controllers: a full-size DRAM cache
// materializes directory chunks as it runs, a DRAM and an HBM point
// then build their simulators from those slabs, and a second full-size
// DRAM cache carves its chunks from them again.
func mixedGrid() []systems.System {
	small := memtech.DefaultDRAMCache()
	small.SizeBytes, small.Ways = 256<<10, 8
	points := []struct {
		base   systems.System
		tech   memtech.Spec
		preset string
	}{
		{systems.LRB(), memtech.Spec{Kind: memtech.DRAMCache, DRAMCache: &small}, "4k"},
		{systems.LRB(), memtech.Spec{}, "4k"},
		{systems.GMAC(), memtech.Spec{Kind: memtech.DRAMCache, DRAMCache: &small}, "2m"},
		{systems.Fusion(), memtech.Spec{Kind: memtech.HBM}, "2m"},
		{systems.CPUGPU(), memtech.Spec{Kind: memtech.NVM}, "4k"},
		{systems.IdealHetero(), memtech.Spec{}, "2m"},
		{systems.CPUGPU(), memtech.Spec{Kind: memtech.DRAMCache}, "2m"},
		{systems.Fusion(), memtech.Spec{Kind: memtech.NVM}, "4k"},
		{systems.Fusion(), memtech.Spec{Kind: memtech.DRAMCache}, "4k"},
		{systems.Fusion(), memtech.Spec{}, "4k"},
		{systems.Fusion(), memtech.Spec{Kind: memtech.HBM}, "4k"},
		{systems.Fusion(), memtech.Spec{Kind: memtech.DRAMCache}, "2m"},
	}
	out := make([]systems.System, len(points))
	for i, p := range points {
		s := p.base
		s.MemTech = p.tech
		s.Translation = xlat.MustParsePreset(p.preset)
		s.Name = fmt.Sprintf("%s/%s/%s", s.Name, p.tech.Kind, p.preset)
		out[i] = s
	}
	return out
}

// TestAffineExecutorMatchesFreshSimulators is the differential test of
// the executor's arena recycling, construction-time and run-time
// carvings alike: every worker count must return exactly the cells a
// fresh, arena-free simulator per cell produces, in kernel-major order,
// building one simulator per cell.
func TestAffineExecutorMatchesFreshSimulators(t *testing.T) {
	sysList := mixedGrid()
	kernels := []string{"reduction", "merge-sort"}
	var want []Cell
	for _, k := range kernels {
		p, err := workload.Open(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range sysList {
			s, err := sim.NewWithOptions(sys, sim.Options{})
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			res, err := s.Run(p)
			if err != nil {
				t.Fatalf("%s on %s: %v", k, sys.Name, err)
			}
			want = append(want, Cell{System: sys.Name, Kernel: k, Result: res})
		}
	}
	for par := 1; par <= 3; par++ {
		o := &Observer{}
		got, err := Executor{Par: par, Obs: o}.RunSystems(sysList, kernels)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i < len(got) && !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("par %d: cell %d (%s on %s) differs from a fresh simulator:\n got %+v\nwant %+v",
						par, i, want[i].Kernel, want[i].System, got[i].Result, want[i].Result)
				}
			}
			t.Fatalf("par %d: sweep differs from fresh simulators", par)
		}
		if built, cells := o.Metrics().Counters["sweep.sims_built"], len(want); built != uint64(cells) {
			t.Errorf("par %d: sweep.sims_built = %d, want one per cell (%d)", par, built, cells)
		}
	}
}

// TestAffineExecutorFailedBuild pins the failure path: every cell of a
// system whose simulator cannot be built fails with its kernel/system
// context, the worker moves on, and the sweep aggregate counts only the
// cells that ran, each on a simulator of its own.
func TestAffineExecutorFailedBuild(t *testing.T) {
	bad := systems.IdealHetero()
	bad.Name = "incoherent"
	bad.FaultGranularityBytes = 4096 // without first-touch faults
	sysList := []systems.System{systems.LRB(), bad, systems.GMAC()}
	kernels := []string{"reduction", "merge-sort"}
	o := &Observer{}
	_, err := Executor{Par: 1, Obs: o}.RunSystems(sysList, kernels)
	if !errors.Is(err, systems.ErrIncoherent) {
		t.Fatalf("err = %v, want systems.ErrIncoherent", err)
	}
	for _, k := range kernels {
		if want := k + " on incoherent: "; !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	good, err := Executor{Par: 1}.RunSystems([]systems.System{systems.LRB(), systems.GMAC()}, kernels)
	if err != nil {
		t.Fatal(err)
	}
	var insts uint64
	for _, c := range good {
		insts += c.Result.CPU.Instructions
	}
	m := o.Metrics().Counters
	if m["sweep.cells.failed"] != uint64(len(kernels)) || m["sweep.sims_built"] != uint64(len(good)) {
		t.Errorf("failed = %d, sims_built = %d, want %d and %d",
			m["sweep.cells.failed"], m["sweep.sims_built"], len(kernels), len(good))
	}
	if m["cpu.instructions"] != insts {
		t.Errorf("aggregate cpu.instructions = %d, want %d from the cells that ran", m["cpu.instructions"], insts)
	}
}
