// Package guideline implements the paper's stated future work
// (Section VII): metrics that measure the efficiency of memory-model
// design options and produce guidelines for choosing one.
//
// Each address-space model is scored on the three axes the paper's
// conclusions identify:
//
//   - Performance: simulated execution time of a representative workload
//     on the model's flagship system configuration, normalised to the
//     ideal system (lower is better).
//   - Programmability: communication-handling source lines from the
//     Table V study (lower is better).
//   - Flexibility: the number of desirable locality-management options
//     the model admits (higher is better) — the paper's proxy for how
//     much room the architecture leaves for hardware optimisation.
//   - Hardware cost: the coherence/consistency machinery the model
//     obliges (lower is better). The paper's Section I/II discussion
//     ranks this: a unified fully-coherent space needs global coherence
//     across heterogeneous PUs; ADSM needs one-sided (CPU-maintained)
//     coherence; the partially shared space avoids coherence entirely
//     via ownership; disjoint spaces need nothing.
//
// The composite score reproduces the paper's overall conclusion: the
// partially shared space is the most promising option, combining many
// hardware design options with moderate programmability cost.
package guideline

import (
	"fmt"
	"sort"

	"heteromem/internal/addrspace"
	"heteromem/internal/codegen"
	"heteromem/internal/locality"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// Score is one model's measurements on the three axes.
type Score struct {
	Model addrspace.Model
	// PerfOverhead is (time/ideal - 1): the execution-time overhead of
	// the model's flagship system over IDEAL-HETERO, averaged across the
	// scored kernels.
	PerfOverhead float64
	// CommLines is the total communication-handling source lines across
	// the Table V kernels.
	CommLines int
	// LocalityOptions is the number of desirable locality-management
	// schemes.
	LocalityOptions int
	// HardwareCost ranks the coherence machinery the model requires
	// (0 = none ... 3 = full cross-PU coherence).
	HardwareCost int
	// Composite is the weighted overall efficiency in [0,1], higher
	// better.
	Composite float64
}

// Weights balances the three axes in the composite score. Each weight
// must be non-negative and they must not all be zero.
type Weights struct {
	Performance     float64
	Programmability float64
	Flexibility     float64
	HardwareCost    float64
}

// DefaultWeights weighs the axes equally.
func DefaultWeights() Weights {
	return Weights{Performance: 1, Programmability: 1, Flexibility: 1, HardwareCost: 1}
}

func (w Weights) sum() float64 {
	return w.Performance + w.Programmability + w.Flexibility + w.HardwareCost
}

func (w Weights) validate() error {
	if w.Performance < 0 || w.Programmability < 0 || w.Flexibility < 0 || w.HardwareCost < 0 {
		return fmt.Errorf("guideline: negative weight %+v", w)
	}
	if w.sum() == 0 {
		return fmt.Errorf("guideline: all weights zero")
	}
	return nil
}

// coherenceCost ranks the coherence/consistency hardware each model
// obliges, per the paper's qualitative discussion.
func coherenceCost(m addrspace.Model) int {
	switch m {
	case addrspace.Unified:
		return 3 // full coherence and consistency across both PUs
	case addrspace.ADSM:
		return 2 // the CPU maintains coherence over the whole space
	case addrspace.PartiallyShared:
		return 1 // ownership removes coherence from the shared space
	default:
		return 0 // disjoint: nothing shared, nothing to keep coherent
	}
}

// flagship returns the evaluated system configuration that embodies each
// address-space model (the Section V-A case studies).
func flagship(m addrspace.Model) systems.System {
	switch m {
	case addrspace.Disjoint:
		return systems.CPUGPU()
	case addrspace.PartiallyShared:
		return systems.LRB()
	case addrspace.ADSM:
		return systems.GMAC()
	default:
		// The unified space's flagship is the ideal coherent system the
		// paper uses as its reference point.
		return systems.IdealHetero()
	}
}

// Evaluate scores every address-space model over the named kernels with
// the given weights. Kernels defaults to the fast subset when empty.
func Evaluate(kernels []string, w Weights) ([]Score, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(kernels) == 0 {
		kernels = []string{"reduction", "merge-sort", "convolution"}
	}

	// Performance axis: average overhead over the ideal system.
	ideal := systems.IdealHetero()
	idealTotals := make(map[string]float64)
	for _, k := range kernels {
		res, err := runOne(ideal, k)
		if err != nil {
			return nil, err
		}
		idealTotals[k] = float64(res.Total())
	}

	var scores []Score
	for _, m := range addrspace.AllModels() {
		sys := flagship(m)
		var overhead float64
		for _, k := range kernels {
			// The unified model's flagship is the ideal system itself,
			// so its baseline run already holds the total.
			total := idealTotals[k]
			if sys != ideal {
				res, err := runOne(sys, k)
				if err != nil {
					return nil, err
				}
				total = float64(res.Total())
			}
			overhead += total/idealTotals[k] - 1
		}
		overhead /= float64(len(kernels))

		scores = append(scores, Score{
			Model:           m,
			PerfOverhead:    overhead,
			CommLines:       totalCommLines(m),
			LocalityOptions: len(locality.DesirableOptions(m)),
			HardwareCost:    coherenceCost(m),
		})
	}
	composite(scores, w)
	sort.Slice(scores, func(i, j int) bool { return scores[i].Composite > scores[j].Composite })
	return scores, nil
}

func runOne(sys systems.System, kernel string) (sim.Result, error) {
	p, err := workload.Open(kernel)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sim.New(sys)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run(p)
}

func totalCommLines(m addrspace.Model) int {
	total := 0
	for _, k := range codegen.Kernels() {
		_, comm := codegen.Count(k, m)
		total += comm
	}
	return total
}

// composite fills the Composite field: each axis is min-max normalised
// across the models to [0,1] with 1 best, then combined by weight.
func composite(scores []Score, w Weights) {
	perf := normalise(scores, func(s Score) float64 { return s.PerfOverhead }, false)
	prog := normalise(scores, func(s Score) float64 { return float64(s.CommLines) }, false)
	flex := normalise(scores, func(s Score) float64 { return float64(s.LocalityOptions) }, true)
	hw := normalise(scores, func(s Score) float64 { return float64(s.HardwareCost) }, false)
	sum := w.sum()
	for i := range scores {
		scores[i].Composite = (w.Performance*perf[i] + w.Programmability*prog[i] +
			w.Flexibility*flex[i] + w.HardwareCost*hw[i]) / sum
	}
}

// normalise maps values onto [0,1]; higherBetter selects the direction.
// Identical values across the board normalise to 1 (no differentiation,
// no penalty).
func normalise(scores []Score, get func(Score) float64, higherBetter bool) []float64 {
	lo, hi := get(scores[0]), get(scores[0])
	for _, s := range scores {
		v := get(s)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]float64, len(scores))
	for i, s := range scores {
		if hi == lo {
			out[i] = 1
			continue
		}
		f := (get(s) - lo) / (hi - lo)
		if higherBetter {
			out[i] = f
		} else {
			out[i] = 1 - f
		}
	}
	return out
}

// Recommend returns the highest-scoring model of scores (as Evaluate
// returns them) and a one-line rationale.
func Recommend(scores []Score) (addrspace.Model, string, error) {
	if len(scores) == 0 {
		return 0, "", fmt.Errorf("guideline: no scores to rank")
	}
	best := scores[0]
	for _, s := range scores[1:] {
		if s.Composite > best.Composite {
			best = s
		}
	}
	why := fmt.Sprintf(
		"%v scores %.2f: %.1f%% overhead vs ideal, %d comm lines, %d locality options",
		best.Model, best.Composite, best.PerfOverhead*100, best.CommLines, best.LocalityOptions)
	return best.Model, why, nil
}
