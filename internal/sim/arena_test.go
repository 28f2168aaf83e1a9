package sim

import (
	"testing"

	"heteromem/internal/arena"
	"heteromem/internal/systems"
)

// TestConstructionArenaBudget bounds what building one Table II
// simulator retains in a fresh arena: the model's metadata (cache tags,
// recency stamps and state masks, MSHR files, replay rings) and little
// else. A sweep rebuilds this for every system a worker visits.
func TestConstructionArenaBudget(t *testing.T) {
	a := arena.New()
	if _, err := NewWithOptions(systems.CPUGPU(), Options{Arena: a}); err != nil {
		t.Fatal(err)
	}
	const budget = 2 << 20
	if got := a.Bytes(); got > budget {
		t.Errorf("building CPU+GPU retained %d KiB of arena slabs, budget %d KiB", got>>10, budget>>10)
	}
	t.Logf("arena retains %d KiB", a.Bytes()>>10)
}
