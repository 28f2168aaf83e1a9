package systems

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/xlat"
)

// Grid declaratively spans a region of the design space as one list per
// axis; Enumerate takes the cross-product. Empty axes default to the
// whole axis (all models, all fabrics, all protocols, whole-object fault
// granularity), so the zero Grid is the full built-in space.
type Grid struct {
	// Name labels the grid in reports.
	Name string
	// Models, Fabrics and Protocols are the axis values to combine.
	Models    []addrspace.Model
	Fabrics   []comm.Kind
	Protocols []model.Kind
	// FaultGranularities lists first-touch page sizes in bytes; zero
	// means one fault per object. The axis only multiplies protocols that
	// take faults — for other protocols nonzero granularities are
	// incoherent points and are skipped rather than duplicated.
	FaultGranularities []uint64
	// MemTechs lists the terminal memory technologies to combine; empty
	// means the DRAM baseline only (NOT all kinds — the axis multiplies
	// every grid fourfold, so spanning it is opt-in).
	MemTechs []memtech.Kind
	// Translations lists the translation front-ends to combine; empty
	// means translation off only (opt-in, like MemTechs). Grid files may
	// give presets ("4k", "2m-shared") or full objects per entry.
	Translations []xlat.Spec
	// Params prices communication for every point; the zero value means
	// Table IV.
	Params config.CommParams
	// Kernels optionally names the workloads to sweep the grid over;
	// consumers default it (hetsweep uses the reduction kernel).
	Kernels []string
}

// gridJSON is the serialised form of a Grid.
type gridJSON struct {
	Name               string            `json:"name"`
	Models             []addrspace.Model `json:"models,omitempty"`
	Fabrics            []comm.Kind       `json:"fabrics,omitempty"`
	Protocols          []model.Kind      `json:"protocols,omitempty"`
	FaultGranularities []uint64          `json:"fault_granularities,omitempty"`
	MemTechs           []memtech.Kind    `json:"mem_techs,omitempty"`
	Translations       []xlat.Spec       `json:"translations,omitempty"`
	Params             json.RawMessage   `json:"params,omitempty"`
	Kernels            []string          `json:"kernels,omitempty"`
}

// LoadGrid parses a declarative grid description. Unknown fields are
// rejected so typos in hand-written files fail loudly.
func LoadGrid(data []byte) (Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j gridJSON
	if err := dec.Decode(&j); err != nil {
		return Grid{}, fmt.Errorf("systems: parsing grid: %w", err)
	}
	params, err := parseParams(j.Params)
	if err != nil {
		return Grid{}, fmt.Errorf("systems: grid %q: %w", j.Name, err)
	}
	seen := make(map[string]bool, len(j.Kernels))
	for _, k := range j.Kernels {
		if seen[k] {
			return Grid{}, fmt.Errorf("systems: grid %q: kernel %q is listed twice", j.Name, k)
		}
		seen[k] = true
	}
	return Grid{
		Name:               j.Name,
		Models:             j.Models,
		Fabrics:            j.Fabrics,
		Protocols:          j.Protocols,
		FaultGranularities: j.FaultGranularities,
		MemTechs:           j.MemTechs,
		Translations:       j.Translations,
		Params:             params,
		Kernels:            j.Kernels,
	}, nil
}

// LoadGridFile reads and parses a grid description file.
func LoadGridFile(path string) (Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Grid{}, fmt.Errorf("systems: %w", err)
	}
	g, err := LoadGrid(data)
	if err != nil {
		return Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Enumerate takes the cross-product of the grid's axes and returns every
// coherent design point, plus the number of incoherent combinations
// skipped (Validate rejections — e.g. ownership over a disjoint space).
// Point names encode their coordinates (model/fabric/protocol, with a
// /pgN suffix for nonzero fault granularities), so every point is
// addressable in reports. Most combinations of a full grid are
// incoherent, so Enumerate applies Validate's checks without formatting
// the error Validate would return, and names only the points it keeps.
func (g Grid) Enumerate() (points []System, skipped int) {
	models := g.Models
	if len(models) == 0 {
		models = addrspace.AllModels()
	}
	fabrics := g.Fabrics
	if len(fabrics) == 0 {
		fabrics = comm.AllKinds()
	}
	protocols := g.Protocols
	if len(protocols) == 0 {
		protocols = model.AllKinds()
	}
	granularities := g.FaultGranularities
	if len(granularities) == 0 {
		granularities = []uint64{0}
	}
	techs := g.MemTechs
	if len(techs) == 0 {
		techs = []memtech.Kind{memtech.DRAM}
	}
	translations := g.Translations
	if len(translations) == 0 {
		translations = []xlat.Spec{{}}
	}
	params := g.Params
	if params == (config.CommParams{}) {
		params = config.TableIV()
	}

	for _, m := range models {
		for _, f := range fabrics {
			for _, p := range protocols {
				for _, gran := range granularities {
					for _, tech := range techs {
						for _, tr := range translations {
							s := System{
								Model:                 m,
								Fabric:                f,
								Protocol:              p,
								FaultGranularityBytes: gran,
								Params:                params,
								Translation:           tr,
							}
							// The DRAM baseline keeps the zero Spec so its
							// points name and hash exactly as before the axis.
							if tech != memtech.DRAM {
								s.MemTech = memtech.Spec{Kind: tech}
							}
							if s.conflict() != noConflict || s.MemTech.Validate() != nil || s.Translation.Validate() != nil {
								skipped++
								continue
							}
							s.Name = pointName(m, f, p, gran, tech, tr)
							points = append(points, s)
						}
					}
				}
			}
		}
	}
	return points, skipped
}

// pointName encodes a design point's axis coordinates. Baseline values
// (whole-object granularity, DRAM) are elided so pre-axis names are
// stable.
func pointName(m addrspace.Model, f comm.Kind, p model.Kind, gran uint64, tech memtech.Kind, tr xlat.Spec) string {
	name := m.String() + "/" + f.String() + "/" + p.String()
	if gran > 0 {
		name += "/pg" + strconv.FormatUint(gran, 10)
	}
	if tech != memtech.DRAM {
		name += "/" + tech.String()
	}
	if !tr.IsZero() {
		name += "/" + tr.Label()
	}
	return name
}
