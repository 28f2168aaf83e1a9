package sim

import (
	"testing"

	"heteromem/internal/memtech"
	"heteromem/internal/obs"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
	"heteromem/internal/xlat"
)

// Host-time self-profiling measures real time only: a profiled run must
// be bit-identical to an unprofiled one, and the host.* counters must
// appear in the registry after flushes. The second system turns on
// translation and a non-DRAM backend, so it also samples memsys.xlat,
// which the first (translation off) never does.
func TestHostProfDoesNotPerturbResults(t *testing.T) {
	p, err := workload.Open("reduction")
	if err != nil {
		t.Fatal(err)
	}
	xlatNVM := systems.CaseStudies()[1]
	xlatNVM.Name += "+nvm+xlat-4k"
	xlatNVM.MemTech = memtech.Spec{Kind: memtech.NVM}
	xlatNVM.Translation = xlat.MustParsePreset("4k")
	for _, sys := range []systems.System{systems.CaseStudies()[0], xlatNVM} {
		t.Run(sys.Name, func(t *testing.T) {
			plain, err := New(sys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Run(p)
			if err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			hp := obs.NewHostProf(1) // time every pipeline run: worst case
			profiled, err := NewWithOptions(sys, Options{Metrics: reg, HostProf: hp})
			if err != nil {
				t.Fatal(err)
			}
			got, err := profiled.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("profiled run diverged:\n got %+v\nwant %+v", got, want)
			}

			snap := reg.Snapshot()
			var phaseNS uint64
			for _, k := range []string{"sequential", "parallel", "transfer"} {
				phaseNS += snap.Counters["host.sim.phase."+k+".ns"]
			}
			if phaseNS == 0 {
				t.Error("phase host attribution is zero")
			}
			for _, st := range []string{"private", "mshr", "ring_req", "l3", "dram", "ring_resp", "commit"} {
				if snap.Counters["host.memsys."+st+".samples"] == 0 {
					t.Errorf("no host.memsys.%s samples recorded at every=1", st)
				}
			}
			xlatOn := !sys.Translation.IsZero()
			if got := snap.Counters["host.memsys.xlat.samples"]; (got > 0) != xlatOn {
				t.Errorf("host.memsys.xlat.samples = %d with translation on = %v", got, xlatOn)
			}
		})
	}
}

// A pooled, reset simulator with host profiling stays bit-identical to a
// fresh one, and per-cell registry resets leave host counters consistent.
func TestHostProfAcrossReset(t *testing.T) {
	p, err := workload.Open("reduction")
	if err != nil {
		t.Fatal(err)
	}
	sys := systems.CaseStudies()[1]
	reg := obs.NewRegistry()
	hp := obs.NewHostProf(8)
	s, err := NewWithOptions(sys, Options{Metrics: reg, HostProf: hp})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	reg.Reset()
	second, err := s.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("reset run diverged under host profiling:\n got %+v\nwant %+v", second, first)
	}
}
