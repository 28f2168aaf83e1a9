package xlat

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpecZeroIsOff(t *testing.T) {
	var s Spec
	if !s.IsZero() {
		t.Fatal("zero spec not IsZero")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if got := s.Label(); got != "off" {
		t.Fatalf("zero spec label = %q", got)
	}
}

func TestSpecValidatePaths(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		path string
	}{
		{"params-but-off-cpu", Spec{CPU: &TLBParams{Entries: 64}}, "translation.cpu"},
		{"params-but-off-walk", Spec{Walk: &WalkParams{Levels: 2}}, "translation.walk"},
		{"iommu-but-off", Spec{IOMMU: IOMMUOn}, "translation.iommu"},
		{"bad-mmu", Spec{MMU: NumMMUKinds}, "translation.mmu"},
		{"bad-entries", Spec{MMU: Private, CPU: &TLBParams{Entries: 100}}, "translation.cpu.entries"},
		{"bad-ways", Spec{MMU: Private, GPU: &TLBParams{Entries: 64, Ways: 3}}, "translation.gpu.ways"},
		{"bad-page", Spec{MMU: Private, GPU: &TLBParams{PageBytes: 1000}}, "translation.gpu.page_bytes"},
		{"bad-levels", Spec{MMU: Shared, Walk: &WalkParams{Levels: 9}}, "translation.walk.levels"},
		{"bad-walk-cache", Spec{MMU: Shared, Walk: &WalkParams{CacheEntries: 7}}, "translation.walk.cache_entries"},
		{"huge-tlb", Spec{MMU: Private, GPU: &TLBParams{Entries: 1 << 30}}, "translation.gpu.entries: must be at most"},
		{"huge-walk-cache", Spec{MMU: Shared, Walk: &WalkParams{CacheEntries: 1 << 30}}, "translation.walk.cache_entries: must be at most"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.path) {
			t.Errorf("%s: error %q does not carry path %q", c.name, err, c.path)
		}
	}
	good := Spec{MMU: Shared, GPU: &TLBParams{Entries: 32, Ways: 8, PageBytes: 2 << 20},
		Walk: &WalkParams{Levels: 5, CacheEntries: -1}, IOMMU: IOMMUOn}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		s, err := ParsePreset(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if (name == "off") != s.IsZero() {
			t.Errorf("preset %q: IsZero = %v", name, s.IsZero())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	two := MustParsePreset("2m")
	if two.ResolvedGPU().PageBytes != 2<<20 || two.ResolvedCPU().PageBytes != 4096 {
		t.Fatalf("2m preset pages = gpu %d cpu %d", two.ResolvedGPU().PageBytes, two.ResolvedCPU().PageBytes)
	}
	if sh := MustParsePreset("2m-shared"); sh.MMU != Shared {
		t.Fatalf("2m-shared MMU = %v", sh.MMU)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{MMU: Shared, GPU: &TLBParams{Entries: 128, PageBytes: 2 << 20},
		Walk: &WalkParams{Levels: 5, LevelPS: 30_000}, IOMMU: IOMMUOn}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.MMU != in.MMU || out.IOMMU != in.IOMMU ||
		*out.GPU != *in.GPU || *out.Walk != *in.Walk || out.CPU != nil {
		t.Fatalf("round trip changed spec: %+v -> %+v", in, out)
	}
}

func TestSpecUnmarshalPresetString(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`"2m-shared"`), &s); err != nil {
		t.Fatal(err)
	}
	want := MustParsePreset("2m-shared")
	if s.MMU != want.MMU || s.ResolvedGPU() != want.ResolvedGPU() || s.ResolvedCPU() != want.ResolvedCPU() {
		t.Fatalf("preset string decoded to %+v", s)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Fatal("unknown preset string accepted")
	}
}

func TestSpecUnmarshalRejectsUnknownFields(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"mmu": "private", "page_size": 4096}`), &s)
	if err == nil {
		t.Fatal("unknown field inside translation block accepted")
	}
}

func TestLabel(t *testing.T) {
	cases := []struct {
		preset string
		want   string
	}{
		{"4k", "xlat-priv-4k"},
		{"2m", "xlat-priv-2m"},
		{"4k-shared", "xlat-shared-4k"},
		{"2m-shared", "xlat-shared-2m"},
	}
	for _, c := range cases {
		if got := MustParsePreset(c.preset).Label(); got != c.want {
			t.Errorf("label(%s) = %q, want %q", c.preset, got, c.want)
		}
	}
	iommu := Spec{MMU: Private, IOMMU: IOMMUOn}
	if got := iommu.Label(); got != "xlat-priv-4k-iommu" {
		t.Errorf("iommu label = %q", got)
	}
}

func TestWithIOMMUResolved(t *testing.T) {
	auto := MustParsePreset("4k")
	if got := auto.WithIOMMUResolved(true).IOMMU; got != IOMMUOn {
		t.Fatalf("auto over remote fabric = %v", got)
	}
	if got := auto.WithIOMMUResolved(false).IOMMU; got != IOMMUOff {
		t.Fatalf("auto over local fabric = %v", got)
	}
	forced := Spec{MMU: Private, IOMMU: IOMMUOff}
	if got := forced.WithIOMMUResolved(true).IOMMU; got != IOMMUOff {
		t.Fatalf("explicit off overridden: %v", got)
	}
}

func TestResolvedDefaults(t *testing.T) {
	var s Spec
	if got := s.ResolvedCPU(); got != DefaultTLB() {
		t.Fatalf("ResolvedCPU zero = %+v", got)
	}
	partial := Spec{MMU: Private, GPU: &TLBParams{PageBytes: 2 << 20}}
	g := partial.ResolvedGPU()
	if g.Entries != 64 || g.Ways != 4 || g.PageBytes != 2<<20 {
		t.Fatalf("partial merge = %+v", g)
	}
	w := Spec{MMU: Private, Walk: &WalkParams{CacheEntries: -1}}.ResolvedWalk()
	if w.CacheEntries != 0 {
		t.Fatalf("disabled walk cache resolves to %d", w.CacheEntries)
	}
	if w.Levels != 4 || w.LevelPS != 20_000 {
		t.Fatalf("walk defaults = %+v", w)
	}
}
