package main

import (
	"reflect"
	"testing"

	"heteromem/internal/systems"
)

func gridPoints(t *testing.T) []systems.System {
	t.Helper()
	g, err := dseGrid()
	if err != nil {
		t.Fatal(err)
	}
	points, _ := g.Enumerate()
	if len(points) != 1200 {
		t.Fatalf("grid has %d coherent points, want 1200", len(points))
	}
	return points
}

func names(sys []systems.System) []string {
	out := make([]string, len(sys))
	for i, s := range sys {
		out[i] = s.Name
	}
	return out
}

func TestSamplePointsSeeded(t *testing.T) {
	points := gridPoints(t)
	a, err := samplePoints(points, 1, perStratum)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := samplePoints(points, 1, perStratum)
	other, _ := samplePoints(points, 2, perStratum)
	if !reflect.DeepEqual(names(a), names(again)) {
		t.Error("the same seed drew different points")
	}
	if reflect.DeepEqual(names(a), names(other)) {
		t.Error("seeds 1 and 2 drew the same points")
	}
	if want := 20 * perStratum; len(a) != want {
		t.Fatalf("drew %d points, want %d", len(a), want)
	}
	seen := map[string]bool{}
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("%s drawn twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, g := range strata(a) {
		if len(g) != perStratum {
			t.Errorf("stratum of %s holds %d points, want %d", a[g[0]].Name, len(g), perStratum)
		}
	}
}

func TestSeededHalf(t *testing.T) {
	points := gridPoints(t)
	for _, per := range []int{1, 2} {
		var techCounts map[string]int
		var halves [][]string
		for seed := int64(1); seed <= 10; seed++ {
			sample, err := samplePoints(points, seed, per)
			if err != nil {
				t.Fatal(err)
			}
			half := seededHalf(sample, seed)
			if len(half) != len(sample)/2 {
				t.Errorf("per %d seed %d: half of %d points has %d", per, seed, len(sample), len(half))
			}
			if !reflect.DeepEqual(names(half), names(seededHalf(sample, seed))) {
				t.Errorf("per %d seed %d: the same seed chose a different half", per, seed)
			}
			in := map[string]bool{}
			for _, s := range sample {
				in[s.Name] = true
			}
			fabrics, techs := map[string]int{}, map[string]int{}
			for _, s := range half {
				if !in[s.Name] {
					t.Errorf("%s is not in the sample", s.Name)
				}
				fabrics[s.Fabric.String()]++
				techs[s.MemTech.Kind.String()]++
			}
			for f, n := range fabrics {
				if n != 2*per {
					t.Errorf("per %d seed %d: fabric %s has %d points in the half, want %d", per, seed, f, n, 2*per)
				}
			}
			if techCounts == nil {
				techCounts = techs
			} else if !reflect.DeepEqual(techs, techCounts) {
				t.Errorf("per %d seed %d: memory technologies %v in the half, seed 1 had %v", per, seed, techs, techCounts)
			}
			halves = append(halves, names(half))
		}
		if reflect.DeepEqual(halves[0], halves[1]) {
			t.Errorf("per %d: seeds 1 and 2 chose the same half", per)
		}
	}
}
