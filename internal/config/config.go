// Package config holds the evaluation parameters of the paper: the
// core-side baseline configuration (Table II) and the communication
// overhead modeling parameters (Table IV). The memory-side baseline lives
// in mem.TableII.
package config

import (
	"heteromem/internal/clock"
	"heteromem/internal/isa"
)

// CoreConfig describes one processing unit's execution core (Table II).
type CoreConfig struct {
	// Name identifies the core ("cpu" or "gpu").
	Name string
	// FreqMHz is the core clock.
	FreqMHz float64
	// IssueWidth is instructions issued per cycle.
	IssueWidth int
	// ROBSize is the out-of-order window (CPU only; 0 for in-order).
	ROBSize int
	// SIMDWidth is the datapath width in lanes (GPU only).
	SIMDWidth int
	// MispredictPenalty is the front-end refill penalty in cycles after a
	// branch misprediction (CPU only).
	MispredictPenalty uint64
	// BranchStall is the stall in cycles charged per branch on a core
	// with no predictor (GPU: "stall on branch").
	BranchStall uint64
	// PredictorTableBits and PredictorHistoryBits size the gshare
	// predictor (CPU only).
	PredictorTableBits   uint
	PredictorHistoryBits uint
	// StrongConsistency makes every store complete globally before the
	// core proceeds (sequential consistency). The baseline is weak
	// consistency — a store buffer drains in the background and only
	// barriers wait — which is what every surveyed system uses (Table I's
	// consistency column). The strong option measures what the "strongly
	// consistent" half of the paper's ideal would cost.
	StrongConsistency bool
}

// BaselineCPU returns the Table II CPU core: 3.5 GHz, out-of-order,
// gshare predictor. Width and window follow a Sandy-Bridge-class core.
func BaselineCPU() CoreConfig {
	return CoreConfig{
		Name:                 "cpu",
		FreqMHz:              3500,
		IssueWidth:           4,
		ROBSize:              128,
		MispredictPenalty:    14,
		PredictorTableBits:   14,
		PredictorHistoryBits: 12,
	}
}

// BaselineGPU returns the Table II GPU core: 1.5 GHz, in-order, 8-wide
// SIMD, no branch predictor (stall on branch).
func BaselineGPU() CoreConfig {
	return CoreConfig{
		Name:        "gpu",
		FreqMHz:     1500,
		IssueWidth:  1,
		SIMDWidth:   8,
		BranchStall: 4,
	}
}

// Domain returns the core's clock domain.
func (c CoreConfig) Domain() *clock.Domain { return clock.NewDomain(c.Name, c.FreqMHz) }

// CommParams are the Table IV parameters for modeling communication
// overhead with special instructions. Latencies are in CPU cycles at the
// baseline 3.5 GHz clock, exactly as the paper specifies them.
// The JSON names appear in declarative system and grid files
// (systems.Load / systems.LoadGrid).
type CommParams struct {
	// APIPCICycles is the fixed cost of a memory copy API using PCI-E
	// (api-pci); the transfer itself adds bytes at PCIRateGBs.
	APIPCICycles uint64 `json:"api_pci_cycles"`
	// PCIRateGBs is the PCI-E 2.0 transfer rate (trans_rate).
	PCIRateGBs float64 `json:"pci_rate_gbs"`
	// APIAcqCycles is the cost of an ownership acquire action (api-acq).
	APIAcqCycles uint64 `json:"api_acq_cycles"`
	// APITrCycles is the cost of a data transfer function into the
	// partially shared space (api-tr).
	APITrCycles uint64 `json:"api_tr_cycles"`
	// LibPFCycles is the library cost of a page fault on first touch of
	// shared data (lib-pf).
	LibPFCycles uint64 `json:"lib_pf_cycles"`
	// CPUFreqMHz anchors the cycle counts to absolute time.
	CPUFreqMHz float64 `json:"cpu_freq_mhz"`
}

// TableIV returns the paper's default communication parameters:
// api-pci = 33250 cycles + bytes at 16 GB/s, api-acq = 1000,
// api-tr = 7000, lib-pf = 42000.
func TableIV() CommParams {
	return CommParams{
		APIPCICycles: 33250,
		PCIRateGBs:   16,
		APIAcqCycles: 1000,
		APITrCycles:  7000,
		LibPFCycles:  42000,
		CPUFreqMHz:   3500,
	}
}

// Ideal returns zero-cost communication parameters, used by the
// IDEAL-HETERO system and the Figure 7 experiment ("ideal communication
// overhead").
func Ideal() CommParams {
	return CommParams{CPUFreqMHz: 3500}
}

func (p CommParams) cycles(n uint64) clock.Duration {
	if n == 0 {
		return 0
	}
	return clock.NewDomain("cpu", p.CPUFreqMHz).CyclesToDuration(n)
}

// transfer returns the PCI-E serialisation time of size bytes.
func (p CommParams) transfer(size uint32) clock.Duration {
	if p.PCIRateGBs <= 0 || size == 0 {
		return 0
	}
	ps := float64(size) / (p.PCIRateGBs * 1e9) * 1e12
	return clock.Duration(ps)
}

// CommCoster prices a communication instruction; Latency bound to a
// parameter set is the usual implementation.
type CommCoster func(kind isa.Kind, size uint32) clock.Duration

// Latency returns the execution latency of a communication instruction of
// the given kind and payload size. Non-communication kinds cost nothing
// here.
func (p CommParams) Latency(kind isa.Kind, size uint32) clock.Duration {
	switch kind {
	case isa.APIPCI:
		return p.cycles(p.APIPCICycles) + p.transfer(size)
	case isa.APIAcquire, isa.APIRelease:
		return p.cycles(p.APIAcqCycles)
	case isa.APITransfer:
		return p.cycles(p.APITrCycles) + p.transfer(size)
	case isa.LibPageFault:
		return p.cycles(p.LibPFCycles)
	default:
		return 0
	}
}

// IsIdeal reports whether every communication cost is zero.
func (p CommParams) IsIdeal() bool {
	return p.APIPCICycles == 0 && p.APIAcqCycles == 0 &&
		p.APITrCycles == 0 && p.LibPFCycles == 0 && p.PCIRateGBs == 0
}
