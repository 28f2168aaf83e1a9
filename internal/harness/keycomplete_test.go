package harness

import (
	"reflect"
	"testing"

	"heteromem/internal/addrspace"
	"heteromem/internal/comm"
	"heteromem/internal/locality"
	"heteromem/internal/memtech"
	"heteromem/internal/model"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/xlat"
)

// Every sim.Options field is classified: either optionsFingerprint keys
// it, and setting it changes the fingerprint, or it is an observer or a
// host-side resource that cannot change a result, and setting it leaves
// the fingerprint alone. A new field fails here until it is classified.
func TestOptionsFingerprintComplete(t *testing.T) {
	fingerprinted := map[string]func(*sim.Options){
		"DisableCoalescing": func(o *sim.Options) { o.DisableCoalescing = true },
		"Locality": func(o *sim.Options) {
			s := locality.HybridShared
			o.Locality = &s
		},
	}
	excluded := map[string]bool{
		"Arena": true, "Metrics": true, "Sampler": true, "Tracer": true, "HostProf": true,
	}
	base := optionsFingerprint(sim.Options{})
	typ := reflect.TypeOf(sim.Options{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		var o sim.Options
		if perturb, ok := fingerprinted[f.Name]; ok {
			perturb(&o)
			if !onlyField(sim.Options{}, o, f.Name) {
				t.Errorf("perturbation of sim.Options.%s must set that field alone", f.Name)
			} else if optionsFingerprint(o) == base {
				t.Errorf("sim.Options.%s is listed as fingerprinted, but setting it leaves the fingerprint %q", f.Name, base)
			}
			continue
		}
		if !excluded[f.Name] {
			t.Errorf("sim.Options.%s is neither fingerprinted by optionsFingerprint nor on the exclusion list", f.Name)
			continue
		}
		if f.Type.Kind() != reflect.Pointer {
			t.Errorf("sim.Options.%s is excluded but not a pointer; only observers and resources may be", f.Name)
			continue
		}
		reflect.ValueOf(&o).Elem().Field(i).Set(reflect.New(f.Type.Elem()))
		if got := optionsFingerprint(o); got != base {
			t.Errorf("excluded sim.Options.%s changes the fingerprint to %q", f.Name, got)
		}
	}
	for name := range fingerprinted {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("fingerprinted list names sim.Options.%s, which does not exist", name)
		}
	}
	for name := range excluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exclusion list names sim.Options.%s, which does not exist", name)
		}
	}
}

// Every systems.System field but Name reaches systems.Hash: perturbing
// it alone, to another valid system, changes the hash. A new field fails
// here until it has a perturbation.
func TestSystemHashComplete(t *testing.T) {
	perturbations := map[string]struct {
		base    systems.System
		perturb func(*systems.System)
	}{
		"Model":                 {systems.CPUGPU(), func(s *systems.System) { s.Model = addrspace.Unified }},
		"Fabric":                {systems.CPUGPU(), func(s *systems.System) { s.Fabric = comm.MemCtrl }},
		"Protocol":              {systems.LRB(), func(s *systems.System) { s.Protocol = model.Ownership }},
		"FaultGranularityBytes": {systems.LRB(), func(s *systems.System) { s.FaultGranularityBytes = 4096 }},
		"Params":                {systems.CPUGPU(), func(s *systems.System) { s.Params.LibPFCycles++ }},
		"MemTech":               {systems.CPUGPU(), func(s *systems.System) { s.MemTech = memtech.Spec{Kind: memtech.NVM} }},
		"Translation":           {systems.CPUGPU(), func(s *systems.System) { s.Translation = xlat.MustParsePreset("4k") }},
	}
	typ := reflect.TypeOf(systems.System{})
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if name == "Name" {
			continue
		}
		p, ok := perturbations[name]
		if !ok {
			t.Errorf("systems.System.%s has no perturbation: show that systems.Hash covers it", name)
			continue
		}
		s := p.base
		p.perturb(&s)
		base, got := systems.Hash(p.base), systems.Hash(s)
		switch {
		case !onlyField(p.base, s, name) || reflect.DeepEqual(s, p.base):
			t.Errorf("perturbation of %s must change that field alone", name)
		case base == "" || got == "":
			t.Errorf("perturbing %s: hash of an invalid system (base %q, perturbed %q)", name, base, got)
		case got == base:
			t.Errorf("systems.Hash ignores System.%s", name)
		}
	}
	renamed := systems.CPUGPU()
	renamed.Name = "other"
	if systems.Hash(renamed) != systems.Hash(systems.CPUGPU()) {
		t.Error("systems.Hash must not depend on the system's name")
	}
}

// onlyField reports whether got differs from base in no field but the
// named one.
func onlyField(base, got any, name string) bool {
	b, g := reflect.ValueOf(base), reflect.ValueOf(got)
	for i := range b.NumField() {
		if b.Type().Field(i).Name != name && !reflect.DeepEqual(b.Field(i).Interface(), g.Field(i).Interface()) {
			return false
		}
	}
	return true
}
