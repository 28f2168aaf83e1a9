package coherence

import (
	"testing"
	"testing/quick"
)

// Node indices for the two PUs' coherence domains.
const (
	cpuNode = 0
	gpuNode = 1
)

func TestNewValidation(t *testing.T) {
	if _, err := NewDirectory(0, 2); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := NewDirectory(100, 2); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	if _, err := NewDirectory(64, 2); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestReadReadNoTraffic(t *testing.T) {
	d := MustNewDirectory(64, 2)
	a1 := d.Access(cpuNode, 0x1000, false)
	a2 := d.Access(gpuNode, 0x1000, false)
	if a1.Messages != 0 || a2.Messages != 0 {
		t.Fatalf("clean sharing generated traffic: %+v %+v", a1, a2)
	}
	if d.StateOf(0x1000) != Shared {
		t.Fatalf("state = %v, want S", d.StateOf(0x1000))
	}
	if !d.SharedBy(cpuNode, 0x1000) || !d.SharedBy(gpuNode, 0x1000) {
		t.Fatal("sharers not recorded")
	}
}

func TestWriteInvalidatesSharer(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(cpuNode, 0x1000, false)
	act := d.Access(gpuNode, 0x1000, true)
	if act.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", act.Invalidations)
	}
	if act.Writeback {
		t.Fatal("clean copy forced a writeback")
	}
	if d.StateOf(0x1000) != Modified {
		t.Fatalf("state = %v, want M", d.StateOf(0x1000))
	}
	if d.SharedBy(cpuNode, 0x1000) {
		t.Fatal("invalidated sharer still recorded")
	}
}

func TestReadOfModifiedForcesWriteback(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(gpuNode, 0x2000, true)
	act := d.Access(cpuNode, 0x2000, false)
	if !act.Writeback || act.WritebackNode != gpuNode {
		t.Fatalf("read of remote M: %+v, want writeback from GPU", act)
	}
	if d.StateOf(0x2000) != Shared {
		t.Fatalf("state after downgrade = %v, want S", d.StateOf(0x2000))
	}
	// Both hold it now.
	if !d.SharedBy(cpuNode, 0x2000) || !d.SharedBy(gpuNode, 0x2000) {
		t.Fatal("sharers wrong after downgrade")
	}
}

func TestWriteOfRemoteModified(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(cpuNode, 0x3000, true)
	act := d.Access(gpuNode, 0x3000, true)
	if !act.Writeback || act.WritebackNode != cpuNode {
		t.Fatalf("write of remote M: %+v", act)
	}
	if act.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", act.Invalidations)
	}
	if d.StateOf(0x3000) != Modified || !d.SharedBy(gpuNode, 0x3000) || d.SharedBy(cpuNode, 0x3000) {
		t.Fatal("ownership transfer wrong")
	}
}

func TestLocalUpgradeAndRewrite(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(cpuNode, 0x4000, false)
	act := d.Access(cpuNode, 0x4000, true) // local S->M upgrade
	if act.Messages != 0 {
		t.Fatalf("local upgrade cost messages: %+v", act)
	}
	act = d.Access(cpuNode, 0x4000, true) // rewrite in M
	if act.Messages != 0 {
		t.Fatalf("rewrite in M cost messages: %+v", act)
	}
}

func TestEvict(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(cpuNode, 0x5000, true)
	d.Evict(cpuNode, 0x5000)
	if d.StateOf(0x5000) != Invalid {
		t.Fatalf("state after owner evict = %v", d.StateOf(0x5000))
	}
	if d.TrackedLines() != 0 {
		t.Fatal("directory entry leaked")
	}
	// Evicting the owner with a sharer remaining degrades to S.
	d.Access(cpuNode, 0x6000, false)
	d.Access(gpuNode, 0x6000, false)
	d2 := MustNewDirectory(64, 2)
	d2.Access(gpuNode, 0x7000, true)
	d2.Access(cpuNode, 0x7000, false) // S, both sharers
	d2.Evict(gpuNode, 0x7000)
	if d2.StateOf(0x7000) != Shared || !d2.SharedBy(cpuNode, 0x7000) {
		t.Fatal("remaining sharer lost")
	}
	// Evicting an untracked line is a no-op.
	d2.Evict(cpuNode, 0x999000)
}

func TestLineGranularity(t *testing.T) {
	d := MustNewDirectory(64, 2)
	d.Access(cpuNode, 0x1000, true)
	// Same line, different offset: still a local rewrite.
	if act := d.Access(cpuNode, 0x1020, true); act.Messages != 0 {
		t.Fatal("same-line access treated as new line")
	}
	if d.TrackedLines() != 1 {
		t.Fatalf("tracked = %d, want 1", d.TrackedLines())
	}
}

// The Actions of a read, a remote write and a read back add up to the
// protocol traffic the hierarchy prices: one invalidation (two
// messages), then one forced writeback (three).
func TestStats(t *testing.T) {
	d := MustNewDirectory(64, 2)
	var total Action
	for _, a := range []Action{
		d.Access(cpuNode, 0x1000, false),
		d.Access(gpuNode, 0x1000, true),
		d.Access(cpuNode, 0x1000, false),
	} {
		total.Invalidations += a.Invalidations
		total.Messages += a.Messages
		if a.Writeback {
			total.Writeback = true
			total.WritebackNode = a.WritebackNode
		}
	}
	want := Action{Invalidations: 1, Writeback: true, WritebackNode: gpuNode, Messages: 5}
	if total != want {
		t.Fatalf("summed actions %+v, want %+v", total, want)
	}
}

// Property: the protocol invariant — at most one PU in Modified, and a
// Modified line has exactly one sharer recorded as owner — holds for any
// access interleaving.
func TestSWMPInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := MustNewDirectory(64, 2)
		for _, op := range ops {
			pu := int(op & 1)
			write := op&2 != 0
			addr := uint64(op>>2&0xff) * 64
			if op&0x8000 != 0 {
				d.Evict(pu, addr)
				continue
			}
			d.Access(pu, addr, write)
			switch d.StateOf(addr) {
			case Modified:
				// Exactly one sharer, and it is the last writer when the
				// op was a write.
				n := 0
				for p := 0; p < 2; p++ {
					if d.SharedBy(p, addr) {
						n++
					}
				}
				if n != 1 {
					return false
				}
				if write && !d.SharedBy(pu, addr) {
					return false
				}
			case Invalid:
				if d.SharedBy(cpuNode, addr) || d.SharedBy(gpuNode, addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDirectoryPingPong(b *testing.B) {
	d := MustNewDirectory(64, 2)
	for i := 0; i < b.N; i++ {
		d.Access(i&1, uint64(i%64)*64, true)
	}
}
