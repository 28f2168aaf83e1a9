package systems

import (
	"errors"
	"strings"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/model"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, s := range CaseStudies() {
		data, err := Save(s)
		if err != nil {
			t.Fatalf("Save(%s): %v", s.Name, err)
		}
		back, err := Load(data)
		if err != nil {
			t.Fatalf("Load(Save(%s)): %v\n%s", s.Name, err, data)
		}
		if back != s {
			t.Errorf("round trip changed %s:\n got %+v\nwant %+v", s.Name, back, s)
		}
	}
}

func TestLoadPresets(t *testing.T) {
	s, err := Load([]byte(`{
		"name": "x", "model": "disjoint", "fabric": "pcie",
		"protocol": "explicit-copy", "params": "ideal"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Params != config.Ideal() {
		t.Errorf("ideal preset = %+v", s.Params)
	}
	// Omitted params default to Table IV.
	s, err = Load([]byte(`{
		"name": "y", "model": "disjoint", "fabric": "pcie",
		"protocol": "explicit-copy"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Params != config.TableIV() {
		t.Errorf("default params = %+v, want Table IV", s.Params)
	}
	// A full object overrides field by field.
	s, err = Load([]byte(`{
		"name": "z", "model": "disjoint", "fabric": "pcie",
		"protocol": "explicit-copy",
		"params": {"api_pci_cycles": 1, "pci_rate_gbs": 8, "api_acq_cycles": 2,
		           "api_tr_cycles": 3, "lib_pf_cycles": 4, "cpu_freq_mhz": 1000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := config.CommParams{APIPCICycles: 1, PCIRateGBs: 8, APIAcqCycles: 2,
		APITrCycles: 3, LibPFCycles: 4, CPUFreqMHz: 1000}
	if s.Params != want {
		t.Errorf("explicit params = %+v, want %+v", s.Params, want)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown field", `{"name": "x", "model": "disjoint", "fabric": "pcie",
			"protocol": "explicit-copy", "pony": true}`},
		{"unknown fabric", `{"name": "x", "model": "disjoint", "fabric": "warp",
			"protocol": "explicit-copy"}`},
		{"unknown protocol", `{"name": "x", "model": "disjoint", "fabric": "pcie",
			"protocol": "telepathy"}`},
		{"unknown preset", `{"name": "x", "model": "disjoint", "fabric": "pcie",
			"protocol": "explicit-copy", "params": "free"}`},
		{"incoherent", `{"name": "x", "model": "disjoint", "fabric": "pcie",
			"protocol": "ownership-first-touch"}`},
	}
	for _, c := range cases {
		if _, err := Load([]byte(c.src)); err == nil {
			t.Errorf("%s: Load accepted %s", c.name, c.src)
		}
	}
}

func TestValidateIncoherent(t *testing.T) {
	base := CPUGPU()
	cases := []struct {
		name   string
		mutate func(*System)
	}{
		{"faults on disjoint", func(s *System) { s.Protocol = model.OwnershipFirstTouch }},
		{"ownership on unified", func(s *System) {
			s.Model = addrspace.Unified
			s.Protocol = model.Ownership
		}},
		{"granularity without faults", func(s *System) { s.FaultGranularityBytes = 4096 }},
		{"adsm protocol off the adsm model", func(s *System) { s.Protocol = model.ADSMLazy }},
		{"invalid model", func(s *System) { s.Model = addrspace.NumModels }},
		{"invalid fabric", func(s *System) { s.Fabric = comm.NumKinds }},
		{"invalid protocol", func(s *System) { s.Protocol = model.NumKinds }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, s)
			continue
		}
		if !errors.Is(err, ErrIncoherent) {
			t.Errorf("%s: error does not wrap ErrIncoherent: %v", c.name, err)
		}
	}
	for _, s := range CaseStudies() {
		if err := s.Validate(); err != nil {
			t.Errorf("case study %s rejected: %v", s.Name, err)
		}
	}
	for _, m := range addrspace.AllModels() {
		if err := ForModel(m).Validate(); err != nil {
			t.Errorf("ForModel(%v) rejected: %v", m, err)
		}
	}
}

func TestLoadFileMatchesBuiltins(t *testing.T) {
	cases := []struct {
		path string
		want System
	}{
		{"../../examples/systems/lrb.json", LRB()},
		{"../../examples/systems/gmac.json", GMAC()},
	}
	for _, c := range cases {
		got, err := LoadFile(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if got != c.want {
			t.Errorf("%s = %+v, want built-in %+v", c.path, got, c.want)
		}
	}
}

func TestGridEnumerate(t *testing.T) {
	// The zero grid spans the whole built-in space; every point it emits
	// is coherent and uniquely named.
	points, skipped := (Grid{}).Enumerate()
	if len(points) == 0 {
		t.Fatal("empty enumeration")
	}
	if skipped == 0 {
		t.Error("full cross-product should contain incoherent points")
	}
	names := make(map[string]bool, len(points))
	for _, p := range points {
		if err := p.Validate(); err != nil {
			t.Errorf("enumerated point %s rejected: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate point name %s", p.Name)
		}
		names[p.Name] = true
		if p.Params == (config.CommParams{}) {
			t.Errorf("%s: zero params would divide by zero", p.Name)
		}
	}
}

func TestGridExampleFile(t *testing.T) {
	g, err := LoadGridFile("../../examples/systems/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	points, _ := g.Enumerate()
	if len(points) < 24 {
		t.Errorf("example grid spans %d points, want >= 24", len(points))
	}
	if len(g.Kernels) == 0 {
		t.Error("example grid names no kernels")
	}
}

func TestLoadGridRejectsUnknownField(t *testing.T) {
	if _, err := LoadGrid([]byte(`{"name": "g", "fabrics": ["pcie"], "pony": 1}`)); err == nil {
		t.Error("LoadGrid accepted an unknown field")
	}
}

func TestLoadGridRejectsRepeatedKernel(t *testing.T) {
	_, err := LoadGrid([]byte(`{"name": "g", "kernels": ["reduction", "dct", "reduction"]}`))
	if err == nil || !strings.Contains(err.Error(), `"reduction"`) {
		t.Errorf("LoadGrid with a repeated kernel: err = %v, want one naming \"reduction\"", err)
	}
}
