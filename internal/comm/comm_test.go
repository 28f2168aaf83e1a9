package comm

import (
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/config"
	"heteromem/internal/dram"
)

func TestPCIeBasePlusRate(t *testing.T) {
	p := New(PCIe, config.TableIV(), nil)
	// Zero bytes: just the base latency (33250 cycles at 3.5 GHz = 9.5us).
	d0 := p.Transfer(0, 0).Sub(0)
	if d0 < 9*clock.Microsecond || d0 > 10*clock.Microsecond {
		t.Fatalf("PCIe base %v, want ~9.5us", d0)
	}
	// 1 MB at 16 GB/s adds ~65.5us.
	p2 := New(PCIe, config.TableIV(), nil)
	d1 := p2.Transfer(1<<20, 0).Sub(0)
	added := d1 - d0
	if added < 60*clock.Microsecond || added > 70*clock.Microsecond {
		t.Fatalf("1MB serialisation %v, want ~65.5us", added)
	}
}

func TestPCIeLinkContention(t *testing.T) {
	p := New(PCIe, config.TableIV(), nil)
	a := p.Transfer(1<<20, 0)
	b := p.Transfer(1<<20, 0)
	if b <= a {
		t.Fatal("concurrent PCIe transfers did not serialise on the link")
	}
}

func TestPCIeAsyncFlag(t *testing.T) {
	if New(PCIe, config.TableIV(), nil).Async() {
		t.Error("sync PCIe reports async")
	}
	g := New(PCIeAsync, config.TableIV(), nil)
	if !g.Async() {
		t.Error("GMAC-style PCIe not async")
	}
	if PCIeAsync.String() != "pcie-async" || PCIe.String() != "pcie" {
		t.Error("PCIe names wrong")
	}
}

func TestApertureCheaperThanPCIe(t *testing.T) {
	params := config.TableIV()
	p := New(PCIe, params, nil)
	a := New(Aperture, params, nil)
	size := uint64(64 << 10)
	dp := p.Transfer(size, 0).Sub(0)
	da := a.Transfer(size, 0).Sub(0)
	if da >= dp {
		t.Fatalf("aperture (%v) not cheaper than PCIe (%v)", da, dp)
	}
}

func TestMemControllerCheapest(t *testing.T) {
	params := config.TableIV()
	size := uint64(64 << 10)
	mc := New(MemCtrl, config.TableIV(), dram.MustNew(dram.DDR3_1333()))
	dm := mc.Transfer(size, 0).Sub(0)
	da := New(Aperture, params, nil).Transfer(size, 0).Sub(0)
	// Paper: "the memory access cost is also very small compared to that
	// of PCI-e" — the Fusion path beats even the aperture for real sizes.
	if dm >= da {
		t.Fatalf("memctrl (%v) not cheaper than aperture (%v)", dm, da)
	}
	if dm == 0 {
		t.Fatal("memctrl transfer free")
	}
}

func TestMemControllerScalesWithSize(t *testing.T) {
	mc := New(MemCtrl, config.TableIV(), dram.MustNew(dram.DDR3_1333()))
	d1 := mc.Transfer(16<<10, 0)
	d2 := mc.Transfer(256<<10, d1)
	if d2.Sub(d1) <= d1.Sub(0) {
		t.Fatal("16x larger transfer not slower")
	}
}

func TestIdealFree(t *testing.T) {
	i := New(Ideal, config.Ideal(), nil)
	if got := i.Transfer(1<<30, 42); got != 42 {
		t.Fatalf("ideal transfer cost time: %v", got)
	}
	if i.Stats().Transfers != 1 || i.Stats().Bytes != 1<<30 {
		t.Fatalf("ideal stats %+v", i.Stats())
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(PCIe, config.TableIV(), nil)
	p.Transfer(1000, 0)
	p.Transfer(2000, 0)
	st := p.Stats()
	if st.Transfers != 2 || st.Bytes != 3000 {
		t.Fatalf("stats %+v", st)
	}
	if st.Busy == 0 {
		t.Fatal("busy time not tracked")
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestFabricIdentities(t *testing.T) {
	params := config.TableIV()
	fabrics := []struct {
		kind      Kind
		name      string
		async     bool
		hasLaunch bool
		remote    bool
	}{
		{PCIe, "pcie", false, false, true},
		{PCIeAsync, "pcie-async", true, true, true},
		{Aperture, "pci-aperture", false, false, true},
		{MemCtrl, "memctrl", false, false, false},
		{Ideal, "ideal", false, false, false},
	}
	for _, c := range fabrics {
		f := New(c.kind, params, dram.MustNew(dram.DDR3_1333()))
		if c.kind.String() != c.name {
			t.Errorf("name = %q, want %q", c.kind, c.name)
		}
		if parsed, err := ParseKind(c.name); err != nil || parsed != c.kind {
			t.Errorf("ParseKind(%q) = %v, %v", c.name, parsed, err)
		}
		if c.kind.RemoteDevice() != c.remote {
			t.Errorf("%s: remote device = %v", c.name, c.kind.RemoteDevice())
		}
		if f.Async() != c.async {
			t.Errorf("%s: async = %v", c.name, f.Async())
		}
		if got := f.Launch() > 0; got != c.hasLaunch {
			t.Errorf("%s: launch cost presence = %v, want %v", c.name, got, c.hasLaunch)
		}
		f.Transfer(128, 0)
		if f.Stats().Transfers != 1 {
			t.Errorf("%s: stats not tracked", c.name)
		}
	}
}

func TestAsyncLaunchIsAPIBase(t *testing.T) {
	params := config.TableIV()
	g := New(PCIeAsync, params, nil)
	// The launch cost is the api-pci base: 33250 cycles at 3.5 GHz = 9.5us.
	if got := g.Launch(); got < 9*clock.Microsecond || got > 10*clock.Microsecond {
		t.Fatalf("launch = %v, want ~9.5us", got)
	}
}

func TestClampHugeTransfer(t *testing.T) {
	// Transfers beyond 4 GiB clamp the latency computation rather than
	// wrapping; the fabric still counts the true byte total.
	p := New(PCIe, config.TableIV(), nil)
	d := p.Transfer(1<<33, 0)
	if d == 0 {
		t.Fatal("huge transfer free")
	}
	if p.Stats().Bytes != 1<<33 {
		t.Fatalf("bytes = %d", p.Stats().Bytes)
	}
}

func TestFabricOrdering(t *testing.T) {
	// The paper's Figure 6 ordering for a typical transfer:
	// ideal < memctrl < aperture < pcie.
	params := config.TableIV()
	size := uint64(320512) // reduction's initial transfer (Table III)
	ideal := New(Ideal, config.Ideal(), nil).Transfer(size, 0).Sub(0)
	mc := New(MemCtrl, config.TableIV(), dram.MustNew(dram.DDR3_1333())).Transfer(size, 0).Sub(0)
	ap := New(Aperture, params, nil).Transfer(size, 0).Sub(0)
	pc := New(PCIe, params, nil).Transfer(size, 0).Sub(0)
	if !(ideal < mc && mc < ap && ap < pc) {
		t.Fatalf("fabric ordering violated: ideal=%v memctrl=%v aperture=%v pcie=%v", ideal, mc, ap, pc)
	}
}
