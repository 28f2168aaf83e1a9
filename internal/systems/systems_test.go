package systems

import (
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/dram"
	"heteromem/internal/model"
)

func TestCaseStudiesComposition(t *testing.T) {
	cs := CaseStudies()
	if len(cs) != 5 {
		t.Fatalf("case studies = %d, want 5", len(cs))
	}
	want := []struct {
		name   string
		model  addrspace.Model
		fabric comm.Kind
	}{
		{"CPU+GPU", addrspace.Disjoint, comm.PCIe},
		{"LRB", addrspace.PartiallyShared, comm.Aperture},
		{"GMAC", addrspace.ADSM, comm.PCIeAsync},
		{"Fusion", addrspace.Disjoint, comm.MemCtrl},
		{"IDEAL-HETERO", addrspace.Unified, comm.Ideal},
	}
	for i, w := range want {
		s := cs[i]
		if s.Name != w.name || s.Model != w.model || s.Fabric != w.fabric {
			t.Errorf("case study %d = %s/%v/%v, want %s/%v/%v",
				i, s.Name, s.Model, s.Fabric, w.name, w.model, w.fabric)
		}
	}
}

func TestSystemProtocols(t *testing.T) {
	lrb := LRB()
	if lrb.Protocol != model.OwnershipFirstTouch {
		t.Errorf("LRB protocol = %v, want %v", lrb.Protocol, model.OwnershipFirstTouch)
	}
	gmac := GMAC()
	if gmac.Protocol != model.ADSMLazy {
		t.Errorf("GMAC protocol = %v, want %v", gmac.Protocol, model.ADSMLazy)
	}
	cuda := CPUGPU()
	if cuda.Protocol != model.ExplicitCopy {
		t.Errorf("CPU+GPU protocol = %v, want %v", cuda.Protocol, model.ExplicitCopy)
	}
	ideal := IdealHetero()
	if ideal.Protocol != model.Ideal {
		t.Errorf("IDEAL-HETERO protocol = %v, want %v", ideal.Protocol, model.Ideal)
	}
	if !ideal.Params.IsIdeal() {
		t.Error("IDEAL-HETERO has non-ideal params")
	}
	for _, s := range CaseStudies() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s does not validate: %v", s.Name, err)
		}
		if _, err := model.New(s.Protocol, s.FaultGranularityBytes); err != nil {
			t.Errorf("%s: model.New: %v", s.Name, err)
		}
	}
}

func TestNewFabricKinds(t *testing.T) {
	ctrl := dram.MustNew(dram.DDR3_1333())
	for _, s := range CaseStudies() {
		f := comm.New(s.Fabric, s.Params, ctrl)
		if s.Fabric == comm.PCIeAsync && !f.Async() {
			t.Errorf("%s: async fabric not async", s.Name)
		}
		if s.Fabric != comm.PCIeAsync && f.Async() {
			t.Errorf("%s: sync fabric reports async", s.Name)
		}
	}
}

func TestForModel(t *testing.T) {
	for _, m := range addrspace.AllModels() {
		s := ForModel(m)
		if s.Model != m {
			t.Errorf("ForModel(%v).Model = %v", m, s.Model)
		}
		if !s.Params.IsIdeal() || s.Fabric != comm.Ideal {
			t.Errorf("ForModel(%v) not ideal", m)
		}
	}
	if p := ForModel(addrspace.PartiallyShared).Protocol; !p.UsesOwnership() {
		t.Errorf("PAS semantics should keep ownership ops, got protocol %v", p)
	}
	if p := ForModel(addrspace.PartiallyShared).Protocol; p.FirstTouchFaults() {
		t.Errorf("Figure 7 isolates semantics from fault cost; protocol %v takes faults", p)
	}
	if p := ForModel(addrspace.Unified).Protocol; p.UsesOwnership() {
		t.Errorf("unified should not have ownership ops, got protocol %v", p)
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 13 {
		t.Fatalf("Table I rows = %d, want 13", len(rows))
	}
	for _, e := range rows {
		if e.Scheme == "" || e.AddressSpace == "" {
			t.Errorf("incomplete row %+v", e)
		}
	}
	// Exactly one homogeneous comparison point: Rigel.
	var homo []string
	for _, e := range rows {
		if e.Homogeneous {
			homo = append(homo, e.Scheme)
		}
	}
	if len(homo) != 1 || homo[0] != "Rigel" {
		t.Errorf("homogeneous rows = %v, want [Rigel]", homo)
	}
}

func TestFindingsMatchSectionIII(t *testing.T) {
	f := Findings()
	if f.Total != 13 {
		t.Fatalf("total = %d", f.Total)
	}
	// "Most proposed/existing systems have disjoint memory systems."
	if f.Disjoint < f.Unified || f.Disjoint < f.PartiallyShared || f.Disjoint < f.ADSM {
		t.Errorf("disjoint (%d) is not the most common: %+v", f.Disjoint, f)
	}
	// "None of the heterogeneous computing systems has employed a
	// unified, fully-coherent, strong-consistent memory system yet."
	if f.FullyCoherentUnified != 0 {
		t.Errorf("found %d fully-coherent strong-consistent unified systems, want 0", f.FullyCoherentUnified)
	}
	if f.PartiallyShared != 1 || f.ADSM != 1 {
		t.Errorf("PAS/ADSM counts %d/%d, want 1/1", f.PartiallyShared, f.ADSM)
	}
}

func TestByAddressSpace(t *testing.T) {
	groups := ByAddressSpace()
	if len(groups["disjoint"]) != 6 {
		t.Errorf("disjoint group = %d, want 6", len(groups["disjoint"]))
	}
	if len(groups["unified"]) != 5 {
		t.Errorf("unified group = %d, want 5", len(groups["unified"]))
	}
}

func TestFabricKindStrings(t *testing.T) {
	names := map[comm.Kind]string{
		comm.PCIe: "pcie", comm.PCIeAsync: "pcie-async", comm.Aperture: "pci-aperture",
		comm.MemCtrl: "memctrl", comm.Ideal: "ideal",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
