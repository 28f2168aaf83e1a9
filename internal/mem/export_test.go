package mem

import "heteromem/internal/cache"

// PrivateAndL3Caches returns the hierarchy's CPU and GPU private caches
// and its L3 tiles.
func (h *Hierarchy) PrivateAndL3Caches() []*cache.Cache {
	return append([]*cache.Cache{h.cpuL1d, h.cpuL2, h.gpuL1d}, h.l3...)
}
