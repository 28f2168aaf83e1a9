// Declarative JSON serialisation of design points. A system file names a
// value on each design-space axis:
//
//	{
//	  "name": "LRB",
//	  "model": "partially-shared",
//	  "fabric": "pci-aperture",
//	  "protocol": "ownership-first-touch",
//	  "params": "table-iv"
//	}
//
// "params" is either a preset name ("table-iv", "ideal") or a full
// parameter object; omitted it defaults to Table IV. Save always writes
// the full object so Load(Save(s)) == s for any system.
package systems

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/config"
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/xlat"
)

// systemJSON is the serialised form of a System. The enum axes marshal
// as their names via their TextMarshaler implementations. Load reads
// Params as a json.RawMessage, since a file may name a preset instead of
// giving the object; Save writes a config.CommParams, which is never
// omitted (omitempty does not apply to structs).
type systemJSON[P any] struct {
	Name                  string          `json:"name"`
	Model                 addrspace.Model `json:"model"`
	Fabric                comm.Kind       `json:"fabric"`
	Protocol              model.Kind      `json:"protocol"`
	FaultGranularityBytes uint64          `json:"fault_granularity_bytes,omitempty"`
	Params                P               `json:"params,omitempty"`
	// MemTech is a pointer so the baseline DRAM selection is omitted
	// entirely, keeping pre-axis files and hashes byte-identical.
	MemTech *memtech.Spec `json:"mem_tech,omitempty"`
	// Translation likewise: the translation-off baseline is omitted
	// entirely. The field accepts a preset string ("4k", "2m-shared") or
	// a full object; Save always writes the object form.
	Translation *xlat.Spec `json:"translation,omitempty"`
}

// Save serialises the system as indented JSON, suitable for -system
// files and for Load round-trips.
func Save(s System) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return marshal(s)
}

// marshal is Save without the validation: the bytes appendSave must
// reproduce.
func marshal(s System) ([]byte, error) {
	j := systemJSON[config.CommParams]{
		Name:                  s.Name,
		Model:                 s.Model,
		Fabric:                s.Fabric,
		Protocol:              s.Protocol,
		FaultGranularityBytes: s.FaultGranularityBytes,
		Params:                s.Params,
	}
	if !s.MemTech.IsZero() {
		mt := s.MemTech
		j.MemTech = &mt
	}
	if !s.Translation.IsZero() {
		tr := s.Translation
		j.Translation = &tr
	}
	out, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("systems: %w", err)
	}
	return append(out, '\n'), nil
}

// Load parses a declarative system description and validates it.
// Unknown fields are rejected so typos in hand-written files fail loudly.
func Load(data []byte) (System, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j systemJSON[json.RawMessage]
	if err := dec.Decode(&j); err != nil {
		return System{}, fmt.Errorf("systems: parsing system: %w", err)
	}
	params, err := parseParams(j.Params)
	if err != nil {
		return System{}, fmt.Errorf("systems: system %q: %w", j.Name, err)
	}
	s := System{
		Name:                  j.Name,
		Model:                 j.Model,
		Fabric:                j.Fabric,
		Protocol:              j.Protocol,
		FaultGranularityBytes: j.FaultGranularityBytes,
		Params:                params,
	}
	if j.MemTech != nil {
		s.MemTech = *j.MemTech
	}
	if j.Translation != nil {
		s.Translation = *j.Translation
	}
	if err := s.Validate(); err != nil {
		return System{}, err
	}
	return s, nil
}

// LoadFile reads and parses a system description file.
func LoadFile(path string) (System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return System{}, fmt.Errorf("systems: %w", err)
	}
	s, err := Load(data)
	if err != nil {
		return System{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseParams resolves the "params" field: absent means Table IV, a
// string names a preset, an object gives the values directly.
func parseParams(raw json.RawMessage) (config.CommParams, error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || bytes.Equal(raw, []byte("null")) {
		return config.TableIV(), nil
	}
	if raw[0] == '"' {
		var name string
		if err := json.Unmarshal(raw, &name); err != nil {
			return config.CommParams{}, err
		}
		switch name {
		case "table-iv":
			return config.TableIV(), nil
		case "ideal":
			return config.Ideal(), nil
		default:
			return config.CommParams{}, fmt.Errorf("unknown params preset %q (table-iv, ideal)", name)
		}
	}
	var p config.CommParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return config.CommParams{}, err
	}
	return p, nil
}
