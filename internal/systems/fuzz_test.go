package systems_test

import (
	"os"
	"path/filepath"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/model"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
)

// pibDRAMCache is a system whose DRAM cache claims 1 PiB: Load must
// reject it by naming the field, not build a directory for it.
const pibDRAMCache = `{"name": "pib", "model": "unified", "fabric": "ideal", "protocol": "ideal",
 "mem_tech": {"kind": "dram-cache", "dram_cache": {"size_bytes": 1125899906842624}}}`

// FuzzLoadSystem feeds arbitrary bytes to systems.Load, seeded from the
// shipped system and grid files. Load must fail with an error or return
// a system that validates, re-saves and reloads to the same hash, and
// builds a simulator; sim.New may reject it, but only with an error.
func FuzzLoadSystem(f *testing.F) {
	paths, err := filepath.Glob("../../examples/systems/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed systems: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(pibDRAMCache))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := systems.Load(data)
		if err != nil {
			return
		}
		if err := sys.Validate(); err != nil {
			t.Fatalf("Load accepted a system that does not validate: %v", err)
		}
		saved, err := systems.Save(sys)
		if err != nil {
			t.Fatalf("Save of a loaded system: %v", err)
		}
		back, err := systems.Load(saved)
		if err != nil {
			t.Fatalf("reload of a saved system: %v\n%s", err, saved)
		}
		if systems.Hash(back) != systems.Hash(sys) {
			t.Fatalf("Save/Load round trip changed the system's hash:\n%s", saved)
		}
		if _, err := sim.New(sys); err != nil {
			t.Logf("sim.New: %v", err)
		}
	})
}

// FuzzLoadGrid feeds arbitrary bytes to systems.LoadGrid, seeded from
// the shipped grid files. LoadGrid must fail with an error or return a
// grid that, when its axis product is small enough to walk, enumerates
// into valid, hashable points plus skipped combinations that together
// account for the whole product.
func FuzzLoadGrid(f *testing.F) {
	paths, err := filepath.Glob("../../examples/systems/*grid.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed grids: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := systems.LoadGrid(data)
		if err != nil {
			return
		}
		n := gridProduct(g)
		if n > 5000 {
			return
		}
		points, skipped := g.Enumerate()
		if len(points)+skipped != n {
			t.Fatalf("%d points + %d skipped != axis product %d", len(points), skipped, n)
		}
		for _, p := range points {
			if err := p.Validate(); err != nil {
				t.Fatalf("Enumerate returned invalid point %s: %v", p.Name, err)
			}
			systems.Hash(p)
		}
	})
}

// gridProduct returns the number of combinations g.Enumerate walks,
// counting an empty axis at its default length, or 5001 once it exceeds
// 5000.
func gridProduct(g systems.Grid) int {
	n := 1
	for _, k := range []int{
		orDefault(len(g.Models), len(addrspace.AllModels())),
		orDefault(len(g.Fabrics), len(comm.AllKinds())),
		orDefault(len(g.Protocols), len(model.AllKinds())),
		orDefault(len(g.FaultGranularities), 1),
		orDefault(len(g.MemTechs), 1),
		orDefault(len(g.Translations), 1),
	} {
		if n *= k; n > 5000 {
			return 5001
		}
	}
	return n
}

func orDefault(n, def int) int {
	if n == 0 {
		return def
	}
	return n
}
