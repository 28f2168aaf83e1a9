package sim

import (
	"reflect"
	"testing"

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

// TestResetMatchesFreshSimulator is the pooling contract: running a cell
// on a Reset() simulator must be bit-identical — Result and all metrics
// — to running it on a freshly constructed one.
func TestResetMatchesFreshSimulator(t *testing.T) {
	for _, sys := range resetSystems() {
		for _, kernel := range []string{"reduction", "merge-sort"} {
			t.Run(sys.Name+"/"+kernel, func(t *testing.T) {
				p, err := workload.Generate(kernel)
				if err != nil {
					t.Fatal(err)
				}

				fresh, err := NewWithOptions(sys, Options{Metrics: obs.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(p)
				if err != nil {
					t.Fatal(err)
				}

				// Same simulator, run twice with a Reset in between: the
				// second run must not see any first-run state.
				pooled, err := NewWithOptions(sys, Options{Metrics: obs.NewRegistry()})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pooled.Run(p); err != nil {
					t.Fatal(err)
				}
				pooled.Reset()
				got, err := pooled.Run(p)
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(got, want) {
					t.Errorf("reused simulator result differs from fresh:\n got %+v\nwant %+v", got, want)
				}
				gotM := pooled.Metrics().Snapshot()
				wantM := fresh.Metrics().Snapshot()
				if !reflect.DeepEqual(gotM, wantM) {
					t.Errorf("reused simulator metrics differ from fresh:\n got %+v\nwant %+v", gotM, wantM)
				}
			})
		}
	}
}

// TestResetClearsResultState checks a reset simulator also behaves
// across different kernels: state from kernel A must not leak into a
// later run of kernel B.
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
