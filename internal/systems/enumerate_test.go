package systems

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/xlat"
)

// referenceEnumerate is Enumerate written the plain way: name every
// combination with fmt and keep the ones Validate accepts.
func referenceEnumerate(g Grid) (points []System, skipped int) {
	models, fabrics, protocols := g.Models, g.Fabrics, g.Protocols
	if len(models) == 0 {
		models = addrspace.AllModels()
	}
	if len(fabrics) == 0 {
		fabrics = comm.AllKinds()
	}
	if len(protocols) == 0 {
		protocols = model.AllKinds()
	}
	grans, techs, trs := g.FaultGranularities, g.MemTechs, g.Translations
	if len(grans) == 0 {
		grans = []uint64{0}
	}
	if len(techs) == 0 {
		techs = []memtech.Kind{memtech.DRAM}
	}
	if len(trs) == 0 {
		trs = []xlat.Spec{{}}
	}
	params := g.Params
	if params == (config.CommParams{}) {
		params = config.TableIV()
	}
	for _, m := range models {
		for _, f := range fabrics {
			for _, p := range protocols {
				for _, gran := range grans {
					for _, tech := range techs {
						for _, tr := range trs {
							name := fmt.Sprintf("%v/%v/%v", m, f, p)
							if gran > 0 {
								name += fmt.Sprintf("/pg%d", gran)
							}
							if tech != memtech.DRAM {
								name += "/" + tech.String()
							}
							if !tr.IsZero() {
								name += "/" + tr.Label()
							}
							s := System{Name: name, Model: m, Fabric: f, Protocol: p,
								FaultGranularityBytes: gran, Params: params, Translation: tr}
							if tech != memtech.DRAM {
								s.MemTech = memtech.Spec{Kind: tech}
							}
							if s.Validate() != nil {
								skipped++
								continue
							}
							points = append(points, s)
						}
					}
				}
			}
		}
	}
	return points, skipped
}

// benchDSEGrid is the grid the repository benchmark samples its dse-*
// design points from: every model, fabric and protocol, two fault
// granularities, every memory technology and every translation preset.
func benchDSEGrid(t *testing.T) Grid {
	g := Grid{Name: "bench-dse", FaultGranularities: []uint64{0, 4096}, MemTechs: memtech.AllKinds()}
	for _, name := range xlat.Presets() {
		spec, err := xlat.ParsePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		g.Translations = append(g.Translations, spec)
	}
	return g
}

// TestEnumerateMatchesReference checks that Enumerate, which names only
// the points it keeps and formats no rejection, returns exactly the
// points, names and skipped count of the plain fmt-and-Validate loop.
func TestEnumerateMatchesReference(t *testing.T) {
	grids := []Grid{{}, benchDSEGrid(t)}
	files, err := filepath.Glob("../../examples/systems/*grid.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("example grids: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		g, err := LoadGridFile(path)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	// Axis values Validate rejects whatever they are combined with.
	bad := benchDSEGrid(t)
	bad.Name = "bad-values"
	bad.MemTechs = append(bad.MemTechs, memtech.NumKinds)
	bad.Translations = append(bad.Translations, xlat.Spec{MMU: xlat.NumMMUKinds})
	grids = append(grids, bad)

	for _, g := range grids {
		got, gotSkipped := g.Enumerate()
		want, wantSkipped := referenceEnumerate(g)
		if gotSkipped != wantSkipped {
			t.Errorf("grid %q: skipped %d, want %d", g.Name, gotSkipped, wantSkipped)
		}
		if len(got) != len(want) {
			t.Errorf("grid %q: %d points, want %d", g.Name, len(got), len(want))
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("grid %q point %d: got %+v, want %+v", g.Name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestValidateMessages pins every Validate message word for word.
func TestValidateMessages(t *testing.T) {
	base := CPUGPU()
	base.Name = "x"
	cases := []struct {
		mutate func(*System)
		want   string
	}{
		{func(s *System) { s.Model = addrspace.NumModels },
			`system "x": incoherent system configuration: invalid address-space model 4`},
		{func(s *System) { s.Fabric = comm.NumKinds },
			`system "x": incoherent system configuration: invalid fabric 5`},
		{func(s *System) { s.Protocol = model.NumKinds },
			`system "x": incoherent system configuration: invalid protocol 5`},
		{func(s *System) { s.Protocol = model.OwnershipFirstTouch },
			`system "x": incoherent system configuration: first-touch faults need a demand-mapped shared space, which the disjoint model does not provide`},
		{func(s *System) { s.Model, s.Protocol = addrspace.Unified, model.Ownership },
			`system "x": incoherent system configuration: ownership ownership operations need ownership control, which only the partially-shared space provides (model is unified)`},
		{func(s *System) { s.FaultGranularityBytes = 4096 },
			`system "x": incoherent system configuration: fault granularity 4096 set while the explicit-copy protocol takes no first-touch faults`},
		{func(s *System) { s.Protocol = model.ADSMLazy },
			`system "x": incoherent system configuration: the adsm protocol needs the CPU to address device memory, which the disjoint model does not allow`},
		{func(s *System) { s.MemTech = memtech.Spec{Kind: memtech.NumKinds} },
			`system "x": mem_tech.kind: invalid memory technology 4`},
		{func(s *System) { s.Translation = xlat.Spec{MMU: xlat.NumMMUKinds} },
			`system "x": translation.mmu: invalid mmu arrangement 3`},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		err := s.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %s", err, c.want)
		}
	}
}
