package main

import (
	"fmt"
	"math/rand"
	"sort"

	"heteromem/internal/memtech"
	"heteromem/internal/systems"
	"heteromem/internal/xlat"
)

// dseGrid is the full design space the dse-* workloads sample from: every
// model, fabric and protocol, whole-object and 4 KB first-touch faults,
// every memory technology and every translation preset. Enumerate keeps
// the 1200 coherent points of its 4000 combinations.
func dseGrid() (systems.Grid, error) {
	g := systems.Grid{
		Name:               "bench-dse",
		FaultGranularities: []uint64{0, 4096},
		MemTechs:           memtech.AllKinds(),
	}
	for _, name := range xlat.Presets() {
		spec, err := xlat.ParsePreset(name)
		if err != nil {
			return systems.Grid{}, err
		}
		g.Translations = append(g.Translations, spec)
	}
	return g, nil
}

// strata groups the indices of the points by fabric and memory
// technology, in order of first appearance. These two axes move a
// point's host cost most: a DRAM-cache simulator allocates about five
// times what the others do, and a memory-controller fabric takes about
// half again as long to simulate. Drawing the same number of points from
// every stratum keeps a pass's cost from swinging with the seed.
func strata(points []systems.System) [][]int {
	index := map[string]int{}
	var out [][]int
	for i, p := range points {
		key := p.Fabric.String() + "/" + p.MemTech.Kind.String()
		k, ok := index[key]
		if !ok {
			k = len(out)
			index[key] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}

// samplePoints draws perStratum points from every stratum with a
// generator seeded by seed and returns them in enumeration order. The
// same seed always yields the same points.
func samplePoints(points []systems.System, seed int64, perStratum int) ([]systems.System, error) {
	rng := rand.New(rand.NewSource(seed))
	var idx []int
	for _, g := range strata(points) {
		if len(g) < perStratum {
			return nil, fmt.Errorf("sample of %d from a stratum of %d points", perStratum, len(g))
		}
		for _, j := range rng.Perm(len(g))[:perStratum] {
			idx = append(idx, g[j])
		}
	}
	return pick(points, idx), nil
}

// seededHalf returns the points dse-incremental pre-fills, in their
// original order: a checkerboard over fabric and memory technology, with
// the fabrics shuffled by seed. On a sample of whole (fabric, mem_tech)
// strata it is half the points, every fabric keeps half of its
// technologies, and each technology has the same number of points in
// the half whatever the seed. So the simulated half costs about the same
// in every seed: a DRAM-cache simulator allocates five times what the
// others do, and with one point per stratum a freely drawn half varied
// dse-incremental's allocation per pass by a fifth across seeds.
func seededHalf(sys []systems.System, seed int64) []systems.System {
	fabric := map[string]int{}
	for _, p := range sys {
		if _, ok := fabric[p.Fabric.String()]; !ok {
			fabric[p.Fabric.String()] = len(fabric)
		}
	}
	perm := rand.New(rand.NewSource(^seed)).Perm(len(fabric))
	var idx []int
	for i, p := range sys {
		if (perm[fabric[p.Fabric.String()]]+int(p.MemTech.Kind))%2 == 0 {
			idx = append(idx, i)
		}
	}
	return pick(sys, idx)
}

// pick returns the systems at the indices, in ascending index order.
func pick(sys []systems.System, idx []int) []systems.System {
	sort.Ints(idx)
	out := make([]systems.System, len(idx))
	for i, j := range idx {
		out[i] = sys[j]
	}
	return out
}
