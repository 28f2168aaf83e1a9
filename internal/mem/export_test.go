package mem

import "heteromem/internal/cache"

// PrivateAndL3Caches returns the hierarchy's CPU and GPU private caches
// and its L3 tiles.
func (h *Hierarchy) PrivateAndL3Caches() []*cache.Cache {
	return append([]*cache.Cache{h.cpuL1d, h.cpuL2, h.gpuL1d}, h.l3...)
}

// ClearMemo zeroes every memo slot of h, so the next access of each PU
// takes the plain L1 probe. Slot generation 0 never matches a live
// generation, which starts at 1.
func (h *Hierarchy) ClearMemo() {
	for p := range h.memo {
		h.memo[p] = lineMemo{}
	}
}
