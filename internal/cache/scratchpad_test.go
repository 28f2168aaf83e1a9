package cache

import "testing"

func TestScratchpadPlaceAndResident(t *testing.T) {
	sp := NewScratchpad("gpu.sw", 16<<10)
	if err := sp.Place(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if !sp.Resident(0x1000) || !sp.Resident(0x1fff) {
		t.Fatal("placed range not resident")
	}
	if sp.Resident(0x2000) {
		t.Fatal("address past range reported resident")
	}
}

func TestScratchpadCapacity(t *testing.T) {
	sp := NewScratchpad("gpu.sw", 8192)
	if err := sp.Place(0x0, 8192); err != nil {
		t.Fatal(err)
	}
	if err := sp.Place(0x10000, 1); err == nil {
		t.Fatal("over-capacity place accepted")
	}
	if sp.Used() != 8192 {
		t.Fatalf("used = %d", sp.Used())
	}
	sp.Clear()
	if err := sp.Place(0x10000, 8192); err != nil {
		t.Fatalf("place after clear: %v", err)
	}
}

func TestScratchpadReplaceSameBase(t *testing.T) {
	sp := NewScratchpad("gpu.sw", 8192)
	if err := sp.Place(0x0, 1024); err != nil {
		t.Fatal(err)
	}
	// Growing the same range must not double-count.
	if err := sp.Place(0x0, 2048); err != nil {
		t.Fatal(err)
	}
	if sp.Used() != 2048 {
		t.Fatalf("used = %d, want 2048", sp.Used())
	}
	// Shrinking keeps the larger resident footprint (no-op).
	if err := sp.Place(0x0, 512); err != nil {
		t.Fatal(err)
	}
	if sp.Used() != 2048 {
		t.Fatalf("used after shrink = %d, want 2048", sp.Used())
	}
}

func TestScratchpadClear(t *testing.T) {
	sp := NewScratchpad("gpu.sw", 8192)
	if err := sp.Place(0x0, 4096); err != nil {
		t.Fatal(err)
	}
	sp.Clear()
	if sp.Used() != 0 || sp.Resident(0x0) {
		t.Fatal("Clear left data resident")
	}
}
