package systems_test

import (
	"os"
	"path/filepath"
	"testing"

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
