package mem

import (
	"strings"
	"testing"

	"heteromem/internal/memtech"
	"heteromem/internal/obs"
)

// Every memory technology must assemble, serve a miss-heavy access
// stream and surface nonzero memtech.* counters.
func TestHierarchyMemTechs(t *testing.T) {
	counters := map[memtech.Kind]string{
		memtech.DRAM:      "memtech.dram.accesses",
		memtech.HBM:       "memtech.hbm.accesses",
		memtech.NVM:       "memtech.nvm.reads",
		memtech.DRAMCache: "memtech.dram_cache.misses",
	}
	for _, k := range memtech.AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := TableII()
			cfg.Tech = memtech.Spec{Kind: k}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if h.TechKind() != k {
				t.Fatalf("TechKind = %v, want %v", h.TechKind(), k)
			}
			reg := obs.NewRegistry()
			h.Instrument(reg)

			// A stride-64 stream over 32 MB overruns every cache level, so
			// the terminal backend must serve fills.
			var now uint64
			for addr := uint64(0); addr < 32<<20; addr += 4096 {
				now = uint64(h.Access(CPU, addr, addr%8192 == 0, 0))
			}
			_ = now
			st := h.Stats()
			if st.DRAMFills[CPU] == 0 {
				t.Fatal("stream must miss to the backend")
			}
			h.FlushObs()
			snap := reg.Snapshot()
			if got := snap.Counters[counters[k]]; got == 0 {
				t.Errorf("%s = 0, want nonzero (have %d fills)", counters[k], st.DRAMFills[CPU])
			}
		})
	}
}

// The default Tech must leave the hierarchy on the bit-identical
// DRAMStage path.
func TestDefaultTechIsDRAMStage(t *testing.T) {
	h := MustNew(TableII())
	if h.TechKind() != memtech.DRAM {
		t.Fatalf("default tech = %v", h.TechKind())
	}
	if h.Backend() == nil {
		t.Fatal("backend must be constructed")
	}
}

// Config.validate must reject malformed mem_tech blocks with the JSON
// path of the offending field.
func TestConfigRejectsBadTech(t *testing.T) {
	cfg := TableII()
	cfg.Tech = memtech.Spec{Kind: memtech.NVM, NVM: &memtech.NVMParams{Channels: -1}}
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "mem_tech.nvm.channels") {
		t.Errorf("want mem_tech.nvm.channels error, got %v", err)
	}
}
