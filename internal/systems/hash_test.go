package systems

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"heteromem/internal/memtech"
	"heteromem/internal/xlat"
)

func TestHashIgnoresName(t *testing.T) {
	a := CaseStudies()[0]
	b := a
	b.Name = "renamed"
	ha, hb := Hash(a), Hash(b)
	if ha == "" || hb == "" {
		t.Fatal("hash of valid system is empty")
	}
	if ha != hb {
		t.Errorf("renamed system hashes differently: %s vs %s", ha, hb)
	}
	if !strings.HasPrefix(ha, "sha256:") || len(ha) != len("sha256:")+64 {
		t.Errorf("malformed hash %q", ha)
	}
}

func TestHashSeparatesDesignPoints(t *testing.T) {
	seen := make(map[string]string)
	for _, s := range CaseStudies() {
		h := Hash(s)
		if h == "" {
			t.Fatalf("system %q: empty hash", s.Name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("systems %q and %q collide on %s", prev, s.Name, h)
		}
		seen[h] = s.Name
	}
}

func TestHashStableAcrossRoundTrip(t *testing.T) {
	s := CaseStudies()[1]
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if Hash(s) != Hash(loaded) {
		t.Error("Save/Load round trip changed the hash")
	}
}

func TestHashInvalidSystem(t *testing.T) {
	var s System
	s.Model = 200 // out of range
	if h := Hash(s); h != "" {
		t.Errorf("invalid system hashed to %q, want empty", h)
	}
}

// saveHash is the definition Hash implements: the sha256 of the
// unnamed system's Save bytes.
func saveHash(t testing.TB, s System) string {
	t.Helper()
	s.Name = ""
	data, err := Save(s)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// checkAppendSave fails unless appendSave writes marshal's bytes for s
// without falling back to Save.
func checkAppendSave(t *testing.T, what string, s System) {
	t.Helper()
	want, err := marshal(s)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got, ok := appendSave(nil, &s)
	if !ok {
		t.Fatalf("%s: hand-written path fell back to Save", what)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: hand-written bytes differ from Save's:\n got %s\nwant %s", what, got, want)
	}
}

// examplePoints is every system the repository ships or sweeps by
// default: the case studies under every memory technology and
// translation preset, Grace Hopper, every examples/ system file, every
// point of every examples/ grid, and every point of the grid over all
// models, fabrics, protocols, memory technologies and translation
// presets with fault granularities 0 and 4096.
func examplePoints(t *testing.T) []System {
	t.Helper()
	points := append(CaseStudies(), GraceHopper())
	full := Grid{FaultGranularities: []uint64{0, 4096}, MemTechs: memtech.AllKinds()}
	for _, k := range memtech.AllKinds() {
		points = append(points, CaseStudiesWithTech(k)...)
	}
	for _, name := range xlat.Presets() {
		spec := xlat.MustParsePreset(name)
		points = append(points, CaseStudiesWithTranslation(spec)...)
		full.Translations = append(full.Translations, spec)
	}
	grid, _ := full.Enumerate()
	points = append(points, grid...)
	paths, err := filepath.Glob("../../examples/systems/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example systems: %v", err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "grid.json") {
			g, err := LoadGridFile(path)
			if err != nil {
				t.Fatal(err)
			}
			grid, _ := g.Enumerate()
			points = append(points, grid...)
			continue
		}
		s, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, s)
	}
	return points
}

// TestHashEqualsSaveDigest checks Hash against its definition, and the
// hand-written bytes against Save's, on every shipped design point.
func TestHashEqualsSaveDigest(t *testing.T) {
	points := examplePoints(t)
	if len(points) < 1000 {
		t.Fatalf("only %d example points", len(points))
	}
	for _, s := range points {
		if got, want := Hash(s), saveHash(t, s); got != want {
			t.Fatalf("%s: Hash %s, sha256 of Save %s", s.Name, got, want)
		}
		checkAppendSave(t, s.Name, s)
	}
}

// TestAppendSaveCoversEveryField sets every field reachable from a
// System, parameter blocks included, first all to zero under allocated
// blocks, then each alone and then all together to a value other than
// zero, and requires the hand-written bytes to be Save's each time. A
// field added to any block without a line in appendSave fails here.
// Floats also take the values where encoding/json changes format.
func TestAppendSaveCoversEveryField(t *testing.T) {
	var s System
	leaves := settableLeaves(reflect.ValueOf(&s).Elem(), "System")
	if len(leaves) < 40 {
		t.Fatalf("reached only %d fields", len(leaves))
	}
	checkAppendSave(t, "every block allocated, every field zero", s)
	for i, l := range leaves {
		old := reflect.New(l.v.Type()).Elem()
		old.Set(l.v)
		setDistinct(l.v, i)
		checkAppendSave(t, l.path, s)
		l.v.Set(old)
	}
	for i, l := range leaves {
		setDistinct(l.v, i)
	}
	checkAppendSave(t, "every field set", s)

	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999e-7, -2.5e-9, 1.5, 0.1, 1e20,
		1e21, 123456789012345678901.0, 1e100, -1e21, 5e-324, math.MaxFloat64,
	} {
		s := LRB()
		s.Params.PCIRateGBs, s.Params.CPUFreqMHz = f, -f
		checkAppendSave(t, "pci_rate_gbs "+strconv.FormatFloat(f, 'g', -1, 64), s)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := LRB()
		s.Params.PCIRateGBs = f
		if _, ok := appendSave(nil, &s); ok {
			t.Errorf("pci_rate_gbs %v: hand-written path did not fall back", f)
		}
		if Hash(s) != "" {
			t.Errorf("pci_rate_gbs %v: hashed a system Save rejects", f)
		}
	}
	for _, name := range []string{"a\"b", "<lrb>", "x&y", "tab\t", "é", "\xff"} {
		s := LRB()
		s.Name = name
		if _, ok := appendSave(nil, &s); ok {
			t.Errorf("name %q: hand-written path did not fall back", name)
		}
	}
}

type settable struct {
	v    reflect.Value
	path string
}

// settableLeaves allocates every nil pointer under v and lists the
// fields under it that hold a number or a string.
func settableLeaves(v reflect.Value, path string) []settable {
	switch v.Kind() {
	case reflect.Struct:
		var out []settable
		for i := 0; i < v.NumField(); i++ {
			out = append(out, settableLeaves(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		return settableLeaves(v.Elem(), path)
	}
	return []settable{{v, path}}
}

// setDistinct sets v to a value other than zero that depends on i. An
// enum (a uint8) takes 1, a name every axis has.
func setDistinct(v reflect.Value, i int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("name-" + strconv.Itoa(i))
	case reflect.Uint8:
		v.SetUint(1)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(i+1) * -7)
	case reflect.Uint, reflect.Uint64:
		v.SetUint(uint64(i+1) << 40)
	case reflect.Float64:
		v.SetFloat(float64(i+1) / 3)
	default:
		panic("setDistinct: " + v.Kind().String())
	}
}

// FuzzSystemHash checks, for every system Load accepts, that the
// hand-written bytes are Save's bytes and Hash is the sha256 of Save's
// bytes for the unnamed system. The corpus is the example system files
// and parameter objects at the edges of encoding/json's float format.
func FuzzSystemHash(f *testing.F) {
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
	for _, rate := range []string{"1e-7", "0.000001", "1e21", "-0", "123456.789", "5e-324"} {
		f.Add([]byte(`{"name": "edge", "model": "partially-shared", "fabric": "pci-aperture",
 "protocol": "ownership-first-touch", "fault_granularity_bytes": 4096,
 "params": {"api_pci_cycles": 1, "pci_rate_gbs": ` + rate + `, "cpu_freq_mhz": 3500},
 "mem_tech": {"kind": "nvm", "nvm": {"channels": 2, "write_ps": 9}},
 "translation": {"mmu": "shared", "cpu": {}, "gpu": {"page_bytes": 2097152},
  "walk": {"cache_entries": -1}, "iommu": "on"}}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			return
		}
		want, err := Save(s)
		if err != nil {
			t.Fatalf("Save of a loaded system: %v", err)
		}
		if got, ok := appendSave(nil, &s); ok && !bytes.Equal(got, want) {
			t.Fatalf("hand-written bytes differ from Save's:\n got %s\nwant %s", got, want)
		}
		if got, want := Hash(s), saveHash(t, s); got != want {
			t.Fatalf("Hash %s, sha256 of Save %s", got, want)
		}
	})
}

// BenchmarkSystemsHash prices the design-point hash of one DSE-style
// point: the LRB axes with a DRAM cache behind the L3 and 2 MB GPU
// pages, so both the mem_tech and translation blocks are written.
func BenchmarkSystemsHash(b *testing.B) {
	s := LRB()
	s.FaultGranularityBytes = 4096
	s.MemTech = memtech.Spec{Kind: memtech.DRAMCache}
	s.Translation = xlat.MustParsePreset("2m")
	b.ReportAllocs()
	var h string
	for i := 0; i < b.N; i++ {
		h = Hash(s)
	}
	if h == "" {
		b.Fatal("empty hash")
	}
}
