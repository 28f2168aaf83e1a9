// Package energy estimates the energy consumption of a simulated run.
// The paper's closing argument for the partially shared space is that its
// hardware design options "provide opportunities to optimize hardware and
// save power/energy"; this package turns that motivation into a
// measurable quantity with an event-energy model in the CACTI/McPAT
// style: every counted event (instruction, cache access, DRAM access,
// ring flit, fabric byte) carries a per-event energy, and a run's
// breakdown is the dot product of its statistics with those costs.
//
// The default constants target a 32 nm-class system and are deliberately
// round: as with the timing model, relative structure matters, not
// absolute joules.
package energy

import (
	"fmt"

	"heteromem/internal/comm"
	"heteromem/internal/mem"
	"heteromem/internal/sim"
)

// Params holds per-event energies in picojoules.
type Params struct {
	// CPUInstPJ and GPUInstPJ are per-instruction core energies
	// (pipeline, register files, predictor/datapath).
	CPUInstPJ float64
	GPUInstPJ float64
	// L1AccessPJ, L2AccessPJ, L3AccessPJ are per-access cache energies.
	L1AccessPJ float64
	L2AccessPJ float64
	L3AccessPJ float64
	// DRAMAccessPJ is the energy of one line-granularity DRAM access.
	DRAMAccessPJ float64
	// RingBytePJ is the interconnect energy per byte-hop.
	RingBytePJ float64
	// FabricBytePJ is the CPU<->GPU communication energy per byte (PCI-E
	// serdes are power-hungry; the ideal fabric is free).
	FabricBytePJ float64
}

// Default returns the 32 nm-class constants.
func Default() Params {
	return Params{
		CPUInstPJ:    70, // wide OoO pipeline
		GPUInstPJ:    25, // in-order SIMD, amortised over lanes
		L1AccessPJ:   15,
		L2AccessPJ:   45,
		L3AccessPJ:   120,
		DRAMAccessPJ: 20000, // ~20 nJ per 64B access incl. I/O
		RingBytePJ:   1,
		FabricBytePJ: 60, // PCI-E-class serdes + protocol
	}
}

func (p Params) validate() error {
	for name, v := range map[string]float64{
		"cpu-inst": p.CPUInstPJ, "gpu-inst": p.GPUInstPJ,
		"l1": p.L1AccessPJ, "l2": p.L2AccessPJ, "l3": p.L3AccessPJ,
		"dram": p.DRAMAccessPJ, "ring": p.RingBytePJ, "fabric": p.FabricBytePJ,
	} {
		if v < 0 {
			return fmt.Errorf("energy: negative %s energy %v", name, v)
		}
	}
	return nil
}

// Breakdown is a run's estimated energy by component, in nanojoules.
type Breakdown struct {
	Cores         float64
	Caches        float64
	DRAM          float64
	Interconnect  float64
	Communication float64
}

// Total returns the summed energy in nanojoules.
func (b Breakdown) Total() float64 {
	return b.Cores + b.Caches + b.DRAM + b.Interconnect + b.Communication
}

// Estimate computes the energy breakdown of a run from its statistics.
func Estimate(res sim.Result, p Params) (Breakdown, error) {
	if err := p.validate(); err != nil {
		return Breakdown{}, err
	}
	var b Breakdown

	b.Cores = (float64(res.CPU.Instructions)*p.CPUInstPJ +
		float64(res.GPU.Instructions)*p.GPUInstPJ) / 1000

	// Every hierarchy access touches an L1; CPU L1 misses touch the L2;
	// first-level misses that reach the shared level touch an L3 tile.
	l1 := float64(res.Mem.Accesses[mem.CPU] + res.Mem.Accesses[mem.GPU])
	l2 := float64(res.Mem.Accesses[mem.CPU] - res.Mem.L1Hits[mem.CPU])
	l3 := float64(res.Mem.L3Hits[mem.CPU] + res.Mem.L3Hits[mem.GPU] +
		res.Mem.DRAMFills[mem.CPU] + res.Mem.DRAMFills[mem.GPU])
	b.Caches = (l1*p.L1AccessPJ + l2*p.L2AccessPJ + l3*p.L3AccessPJ) / 1000

	b.DRAM = float64(res.DRAM.Requests) * p.DRAMAccessPJ / 1000
	b.Interconnect = float64(res.Ring.Bytes) * p.RingBytePJ / 1000
	// The serdes energy applies to off-chip PCI-class links only; the
	// memory-controller fabric's traffic is already in the DRAM term
	// (its DMA issues real controller requests), and the ideal fabric is
	// free by definition.
	if k, err := comm.ParseKind(res.FabricName); err == nil && k.RemoteDevice() {
		b.Communication = float64(res.Fabric.Bytes) * p.FabricBytePJ / 1000
	}
	return b, nil
}

// EstimateDefault is Estimate with the default constants.
func EstimateDefault(res sim.Result) Breakdown {
	b, err := Estimate(res, Default())
	if err != nil {
		panic(err) // Default() always validates
	}
	return b
}
