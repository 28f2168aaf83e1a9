// Package bpred implements the branch predictors used by the simulated
// processing units. The baseline CPU (Table II) uses a gshare predictor;
// the GPU has none and stalls on every branch, which the GPU core model
// handles itself.
package bpred

import "heteromem/internal/arena"

// Gshare is the classic gshare predictor: a global history register XORed
// with the branch PC indexes a table of 2-bit saturating counters.
type Gshare struct {
	history  uint64
	histBits uint
	counters []uint8
	mask     uint64
}

// NewGshare returns a gshare predictor with 2^tableBits counters and a
// history register of historyBits bits. It panics on a non-positive or
// oversized table; predictor geometry is fixed at configuration time.
func NewGshare(tableBits, historyBits uint) *Gshare {
	return NewGshareIn(nil, tableBits, historyBits)
}

// NewGshareIn is NewGshare with the counter table carved from the arena
// (nil falls back to the heap).
func NewGshareIn(a *arena.Arena, tableBits, historyBits uint) *Gshare {
	if tableBits == 0 || tableBits > 28 {
		panic("bpred: table bits out of range")
	}
	if historyBits > 64 {
		panic("bpred: history bits out of range")
	}
	g := &Gshare{
		histBits: historyBits,
		counters: arena.Make[uint8](a, 1<<tableBits),
		mask:     1<<tableBits - 1,
	}
	// Initialise to weakly taken: real predictors warm up quickly and the
	// weak state avoids a cold-start bias toward not-taken.
	for i := range g.counters {
		g.counters[i] = 2
	}
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	histMask := uint64(1)<<g.histBits - 1
	return ((pc >> 2) ^ (g.history & histMask)) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.counters[g.index(pc)] >= 2
}

// Update trains the predictor with the actual outcome of the branch at pc
// and returns whether the (pre-update) prediction was correct. The global
// history is speculatively perfect: the trace carries actual outcomes, so
// history updates with the resolved direction as real hardware does after
// recovery.
func (g *Gshare) Update(pc uint64, taken bool) bool {
	idx := g.index(pc)
	predicted := g.counters[idx] >= 2
	if taken && g.counters[idx] < 3 {
		g.counters[idx]++
	}
	if !taken && g.counters[idx] > 0 {
		g.counters[idx]--
	}
	g.history = g.history<<1 | b2u(taken)
	return predicted == taken
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
