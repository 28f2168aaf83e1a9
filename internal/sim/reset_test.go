package sim

import (
	"reflect"
	"testing"

	"heteromem/internal/arena"
	"heteromem/internal/memtech"
	"heteromem/internal/obs"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

// resetSystems covers every fabric kind, both ownership/page-fault
// programming models, and the directory-coherent ablation path on DRAM,
// plus every other memory technology and an ownership system with
// translation on, whose handovers shoot down its TLBs.
func resetSystems() []systems.System {
	nvm := systems.CPUGPU()
	nvm.Name += "/nvm"
	nvm.MemTech = memtech.Spec{Kind: memtech.NVM}
	dramCache := systems.Fusion()
	dramCache.Name += "/dram-cache"
	dramCache.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	xlatLRB := systems.LRB()
	xlatLRB.Name += "/xlat-2m-shared"
	xlatLRB.Translation = xlat.MustParsePreset("2m-shared")
	return append(systems.CaseStudies(), systems.GraceHopper(), nvm, dramCache, xlatLRB)
}

// TestResetMatchesFreshSimulator is the rebuild contract a sweep worker
// relies on: a cell built on the worker's rewound arena, after the arena
// carried a run of a different system, must be bit-identical (Result and
// all metrics) to the cell built on a new arena. Simulator.Reset, which
// rebuilds in place, must match it too.
func TestResetMatchesFreshSimulator(t *testing.T) {
	sysList := resetSystems()
	// The DRAM-cache point dirties the most slabs (directory chunks as
	// well as construction), so it runs before every other system; the
	// first system runs before it.
	dirtiest := sysList[len(sysList)-2]
	for _, sys := range sysList {
		prev := dirtiest
		if sys.Name == dirtiest.Name {
			prev = sysList[0]
		}
		for _, kernel := range []string{"reduction", "merge-sort"} {
			t.Run(sys.Name+"/"+kernel, func(t *testing.T) {
				p, err := workload.Generate(kernel)
				if err != nil {
					t.Fatal(err)
				}
				build := func(sys systems.System, a *arena.Arena) *Simulator {
					s, err := NewWithOptions(sys, Options{Metrics: obs.NewRegistry(), Arena: a})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				run := func(s *Simulator) Result {
					res, err := s.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fresh := build(sys, arena.New())
				want := run(fresh)
				check := func(how string, s *Simulator) {
					if got := run(s); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: result differs from a new arena's:\n got %+v\nwant %+v", how, got, want)
					}
					if got, want := s.Metrics().Snapshot(), fresh.Metrics().Snapshot(); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: metrics differ from a new arena's:\n got %+v\nwant %+v", how, got, want)
					}
				}

				a := arena.New()
				run(build(prev, a))
				a.Reset()
				rebuilt := build(sys, a)
				check("rewound arena after "+prev.Name, rebuilt)
				rebuilt.Reset()
				check("Reset after a run", rebuilt)
			})
		}
	}
}

// TestResetClearsResultState checks Reset across different kernels:
// state from kernel A must not leak into a later run of kernel B.
func TestResetClearsResultState(t *testing.T) {
	sys := systems.CaseStudies()[0]
	a, err := workload.Generate("reduction")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate("convolution")
	if err != nil {
		t.Fatal(err)
	}

	fresh := MustNew(sys)
	want, err := fresh.Run(b)
	if err != nil {
		t.Fatal(err)
	}

	pooled := MustNew(sys)
	if _, err := pooled.Run(a); err != nil {
		t.Fatal(err)
	}
	pooled.Reset()
	got, err := pooled.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kernel state leaked across Reset:\n got %+v\nwant %+v", got, want)
	}
}
