package guideline

import (
	"strings"
	"testing"

	"heteromem/internal/addrspace"
)

func TestEvaluateScoresAllModels(t *testing.T) {
	scores, err := Evaluate([]string{"reduction"}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != int(addrspace.NumModels) {
		t.Fatalf("scores = %d, want %d", len(scores), addrspace.NumModels)
	}
	seen := map[addrspace.Model]bool{}
	for _, s := range scores {
		seen[s.Model] = true
		if s.Composite < 0 || s.Composite > 1 {
			t.Errorf("%v composite %v out of [0,1]", s.Model, s.Composite)
		}
		if s.PerfOverhead < 0 {
			t.Errorf("%v overhead %v negative (slower systems only)", s.Model, s.PerfOverhead)
		}
	}
	if len(seen) != int(addrspace.NumModels) {
		t.Fatal("duplicate or missing models")
	}
	// Sorted best-first.
	for i := 1; i < len(scores); i++ {
		if scores[i].Composite > scores[i-1].Composite {
			t.Fatal("scores not sorted descending")
		}
	}
}

func TestPaperConclusionPartiallySharedWins(t *testing.T) {
	// With the paper's four axes weighted equally, the partially shared
	// space comes out on top — the paper's overall conclusion.
	best, why, err := recommend([]string{"reduction", "merge-sort"}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if best != addrspace.PartiallyShared {
		t.Fatalf("recommended %v, want partially-shared (got rationale: %s)", best, why)
	}
	if !strings.Contains(why, "partially-shared") {
		t.Errorf("rationale %q does not name the model", why)
	}
}

// recommend scores the models over kernels with weights w and ranks
// them.
func recommend(kernels []string, w Weights) (addrspace.Model, string, error) {
	scores, err := Evaluate(kernels, w)
	if err != nil {
		return 0, "", err
	}
	return Recommend(scores)
}

func TestWeightsSteerTheRecommendation(t *testing.T) {
	// A pure-programmability designer is pointed at the unified space.
	best, _, err := recommend([]string{"reduction"}, Weights{Programmability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best != addrspace.Unified {
		t.Fatalf("programmability-only recommendation = %v, want unified", best)
	}
	// A pure-hardware-cost designer is pointed at disjoint.
	best, _, err = recommend([]string{"reduction"}, Weights{HardwareCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best != addrspace.Disjoint {
		t.Fatalf("hardware-cost-only recommendation = %v, want disjoint", best)
	}
	// A pure-flexibility designer gets partially shared.
	best, _, err = recommend([]string{"reduction"}, Weights{Flexibility: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best != addrspace.PartiallyShared {
		t.Fatalf("flexibility-only recommendation = %v, want partially-shared", best)
	}
}

func TestAxisValues(t *testing.T) {
	scores, err := Evaluate([]string{"reduction"}, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	get := func(m addrspace.Model) Score {
		for _, s := range scores {
			if s.Model == m {
				return s
			}
		}
		t.Fatalf("model %v missing", m)
		return Score{}
	}
	uni, dis := get(addrspace.Unified), get(addrspace.Disjoint)
	pas, adsm := get(addrspace.PartiallyShared), get(addrspace.ADSM)

	if uni.CommLines != 0 {
		t.Errorf("unified comm lines = %d, want 0", uni.CommLines)
	}
	if !(uni.CommLines < pas.CommLines && pas.CommLines <= adsm.CommLines && adsm.CommLines < dis.CommLines) {
		t.Errorf("Table V ordering broken: %d %d %d %d", uni.CommLines, pas.CommLines, adsm.CommLines, dis.CommLines)
	}
	if !(pas.LocalityOptions > adsm.LocalityOptions && adsm.LocalityOptions > uni.LocalityOptions) {
		t.Errorf("locality ordering broken: %d %d %d", pas.LocalityOptions, adsm.LocalityOptions, uni.LocalityOptions)
	}
	if !(uni.HardwareCost > adsm.HardwareCost && adsm.HardwareCost > pas.HardwareCost && pas.HardwareCost > dis.HardwareCost) {
		t.Errorf("hardware cost ordering broken")
	}
	// Unified (the ideal flagship) has zero performance overhead.
	if uni.PerfOverhead != 0 {
		t.Errorf("unified overhead = %v, want 0", uni.PerfOverhead)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Evaluate(nil, Weights{}); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := Evaluate(nil, Weights{Performance: -1, Flexibility: 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Evaluate([]string{"nope"}, DefaultWeights()); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestDefaultKernelsUsedWhenEmpty(t *testing.T) {
	scores, err := Evaluate(nil, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
}
