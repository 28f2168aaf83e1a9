package systems

import (
	"bytes"
	"strings"
	"testing"

	"heteromem/internal/memtech"
)

func TestSaveOmitsDefaultMemTech(t *testing.T) {
	// The DRAM baseline keeps pre-axis files byte-identical: no mem_tech
	// key appears for a zero Spec.
	for _, s := range CaseStudies() {
		data, err := Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("mem_tech")) {
			t.Errorf("%s: baseline Save emits mem_tech:\n%s", s.Name, data)
		}
	}
}

func TestMemTechRoundTrip(t *testing.T) {
	s := GraceHopper()
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatalf("Load(Save(grace-hopper)): %v\n%s", err, data)
	}
	if back != s {
		t.Errorf("round trip changed grace-hopper:\n got %+v\nwant %+v", back, s)
	}

	// A spec with a parameter block round-trips field by field (pointer
	// identity differs, so compare contents).
	s = CPUGPU()
	s.MemTech = memtech.Spec{Kind: memtech.NVM, NVM: &memtech.NVMParams{ReadPS: 300_000}}
	data, err = Save(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err = Load(data)
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, data)
	}
	if back.MemTech.Kind != memtech.NVM || back.MemTech.NVM == nil ||
		*back.MemTech.NVM != *s.MemTech.NVM {
		t.Errorf("round trip changed mem_tech: %+v", back.MemTech)
	}
}

func TestLoadRejectsMemTechErrors(t *testing.T) {
	base := `{"name": "x", "model": "unified", "fabric": "ideal", "protocol": "ideal", "mem_tech": %s}`
	cases := []struct{ name, block, wantInErr string }{
		{"unknown kind", `{"kind": "optane"}`, "optane"},
		{"unknown field in block", `{"kind": "hbm", "pony": 1}`, "pony"},
		{"unknown field in params", `{"kind": "nvm", "nvm": {"read_latency": 5}}`, "read_latency"},
		{"negative channels", `{"kind": "nvm", "nvm": {"channels": -3}}`, "mem_tech.nvm.channels"},
		{"tiny rows", `{"kind": "hbm", "hbm": {"row_bytes": 16}}`, "mem_tech.hbm.row_bytes"},
		{"params for the wrong kind", `{"kind": "hbm", "nvm": {"channels": 2}}`, "mem_tech.nvm"},
		{"undersized dram cache", `{"kind": "dram-cache", "dram_cache": {"size_bytes": 512}}`, "mem_tech.dram_cache.size_bytes"},
		{"1 PiB dram cache", `{"kind": "dram-cache", "dram_cache": {"size_bytes": 1125899906842624}}`, "mem_tech.dram_cache.size_bytes: must be at most"},
		{"channel count past the bound", `{"kind": "nvm", "nvm": {"channels": 100000000}}`, "mem_tech.nvm.channels: must be at most"},
		{"bank count past the bound", `{"kind": "hbm", "hbm": {"banks_per_channel": 100000}}`, "mem_tech.hbm.banks_per_channel: must be at most"},
	}
	for _, c := range cases {
		_, err := Load([]byte(strings.Replace(base, "%s", c.block, 1)))
		if err == nil {
			t.Errorf("%s: Load accepted mem_tech %s", c.name, c.block)
			continue
		}
		if !strings.Contains(err.Error(), c.wantInErr) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantInErr)
		}
	}
}

// Two systems differing only in MemTech are distinct design points and
// must hash differently; the DRAM-default spec must hash identically to
// the pre-axis encoding.
func TestHashCoversMemTech(t *testing.T) {
	base := IdealHetero()
	hbm := base
	hbm.MemTech = memtech.Spec{Kind: memtech.HBM}

	hBase := Hash(base)
	hHBM := Hash(hbm)
	if hBase == "" || hHBM == "" {
		t.Fatal("hash failed")
	}
	if hBase == hHBM {
		t.Error("systems differing only in mem_tech hash identically")
	}

	// Parameter overrides are also part of the point's identity.
	tuned := hbm
	tuned.MemTech.HBM = &memtech.HBMParams{Channels: 32}
	hTuned := Hash(tuned)
	if hTuned == "" {
		t.Fatal("hash failed")
	}
	if hTuned == hHBM {
		t.Error("parameter overrides do not change the hash")
	}
}

func TestGridMemTechAxis(t *testing.T) {
	g := Grid{
		Name:   "techs",
		Models: nil, Fabrics: nil, Protocols: nil,
		MemTechs: memtech.AllKinds(),
	}
	points, _ := g.Enumerate()
	if len(points) == 0 {
		t.Fatal("empty enumeration")
	}
	// Without the axis the same grid spans a quarter of the points, and
	// each surviving point appears once per technology.
	base, _ := (Grid{}).Enumerate()
	if len(points) != 4*len(base) {
		t.Errorf("mem_tech axis spans %d points, want %d", len(points), 4*len(base))
	}
	perTech := map[memtech.Kind]int{}
	for _, p := range points {
		perTech[p.MemTech.Kind]++
		if p.MemTech.Kind == memtech.DRAM {
			if !p.MemTech.IsZero() {
				t.Errorf("%s: DRAM point must keep the zero Spec", p.Name)
			}
			if strings.Contains(p.Name, "/dram") {
				t.Errorf("%s: baseline point name must not carry a tech suffix", p.Name)
			}
		} else if !strings.HasSuffix(p.Name, "/"+p.MemTech.Kind.String()) {
			t.Errorf("%s: name must end in /%s", p.Name, p.MemTech.Kind)
		}
	}
	for _, k := range memtech.AllKinds() {
		if perTech[k] != len(base) {
			t.Errorf("%v: %d points, want %d", k, perTech[k], len(base))
		}
	}
}

func TestMemTechExampleFiles(t *testing.T) {
	s, err := LoadFile("../../examples/systems/grace-hopper.json")
	if err != nil {
		t.Fatal(err)
	}
	if s != GraceHopper() {
		t.Errorf("grace-hopper.json = %+v, want built-in %+v", s, GraceHopper())
	}
	if Hash(s) == "" {
		t.Error("grace-hopper does not hash")
	}

	g, err := LoadGridFile("../../examples/systems/memtech-grid.json")
	if err != nil {
		t.Fatal(err)
	}
	points, skipped := g.Enumerate()
	if len(points) != 4 || skipped != 0 {
		t.Errorf("memtech grid: %d points (%d skipped), want 4 (0)", len(points), skipped)
	}
	seen := map[memtech.Kind]bool{}
	for _, p := range points {
		seen[p.MemTech.Kind] = true
	}
	for _, k := range memtech.AllKinds() {
		if !seen[k] {
			t.Errorf("memtech grid misses %v", k)
		}
	}
}

func TestCaseStudiesWithTech(t *testing.T) {
	for _, k := range memtech.AllKinds() {
		list := CaseStudiesWithTech(k)
		if len(list) != 5 {
			t.Fatalf("%v: %d systems", k, len(list))
		}
		for i, s := range list {
			if s.Name != CaseStudies()[i].Name {
				t.Errorf("%v: name changed to %s", k, s.Name)
			}
			if s.MemTech.Kind != k {
				t.Errorf("%v: %s has tech %v", k, s.Name, s.MemTech.Kind)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%v/%s: %v", k, s.Name, err)
			}
		}
	}
	if !CaseStudiesWithTech(memtech.DRAM)[0].MemTech.IsZero() {
		t.Error("DRAM case studies must keep the zero Spec")
	}
}
