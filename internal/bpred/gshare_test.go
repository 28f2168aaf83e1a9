package bpred

import (
	"math/rand"
	"slices"
	"testing"

	"heteromem/internal/arena"
)

func TestAlwaysTakenLearned(t *testing.T) {
	g := NewGshare(12, 8)
	pc := uint64(0x400100)
	// After warm-up, an always-taken branch must predict perfectly.
	for i := 0; i < 4; i++ {
		g.Update(pc, true)
	}
	for i := 0; i < 100; i++ {
		if !g.Predict(pc) {
			t.Fatalf("iteration %d: always-taken branch predicted not-taken", i)
		}
		if !g.Update(pc, true) {
			t.Fatalf("iteration %d: mispredicted steady taken", i)
		}
	}
}

func TestAlwaysNotTakenLearned(t *testing.T) {
	g := NewGshare(12, 8)
	pc := uint64(0x400200)
	for i := 0; i < 4; i++ {
		g.Update(pc, false)
	}
	for i := 0; i < 100; i++ {
		if g.Predict(pc) {
			t.Fatal("always-not-taken branch predicted taken after warm-up")
		}
		g.Update(pc, false)
	}
}

func TestAlternatingPatternUsesHistory(t *testing.T) {
	// A strict T/NT alternation is fully captured by 1 bit of history, so
	// gshare should converge to near-perfect prediction.
	g := NewGshare(14, 12)
	pc := uint64(0x400300)
	taken := false
	for i := 0; i < 200; i++ { // warm-up
		g.Update(pc, taken)
		taken = !taken
	}
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !g.Update(pc, taken) {
			wrong++
		}
		taken = !taken
	}
	if wrong > 10 {
		t.Fatalf("alternating pattern mispredicted %d/1000 times", wrong)
	}
}

func TestRandomBranchesNearChance(t *testing.T) {
	g := NewGshare(12, 8)
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	wrong := 0
	for i := 0; i < n; i++ {
		if !g.Update(uint64(0x400000+8*(i%64)), rng.Intn(2) == 0) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("random branches mispredict rate %.2f, expected near 0.5", rate)
	}
}

// Update reports each branch's outcome against the prediction made
// before it trained: from the weakly-taken start, a not-taken branch is
// mispredicted once and then learned.
func TestStats(t *testing.T) {
	g := NewGshare(10, 0)
	if !g.Update(0, true) {
		t.Error("taken branch mispredicted from the weakly-taken start")
	}
	g = NewGshare(10, 0)
	if g.Update(0, false) {
		t.Error("not-taken branch predicted correctly from the weakly-taken start")
	}
	if !g.Update(0, false) {
		t.Error("not-taken branch mispredicted after one update")
	}
}

// TestReset rebuilds a trained predictor on its rewound arena: the
// counter table comes back from the arena zeroed, and the build must
// restore the weakly-taken state, so the rebuilt predictor decides
// exactly as a new one does.
func TestReset(t *testing.T) {
	train := func(g *Gshare) (outcomes []bool) {
		for i := 0; i < 50; i++ {
			outcomes = append(outcomes, g.Update(uint64(i), i%3 == 0))
		}
		return outcomes
	}
	want := train(NewGshare(10, 4))
	a := arena.New()
	train(NewGshareIn(a, 10, 4))
	a.Reset()
	if got := train(NewGshareIn(a, 10, 4)); !slices.Equal(got, want) {
		t.Fatalf("rebuilt predictor outcomes %v, want %v", got, want)
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, c := range []struct{ table, hist uint }{{0, 8}, {29, 8}, {12, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGshare(%d,%d) did not panic", c.table, c.hist)
				}
			}()
			NewGshare(c.table, c.hist)
		}()
	}
}

func BenchmarkGshareUpdate(b *testing.B) {
	g := NewGshare(14, 12)
	for i := 0; i < b.N; i++ {
		g.Update(uint64(i%1024)*4, i%7 < 3)
	}
}
