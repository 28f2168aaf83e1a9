package cache

import (
	"testing"

	"heteromem/internal/obs"
)

func TestFlushObsBatchesDeltas(t *testing.T) {
	c := smallCache(t, LRU)
	reg := obs.NewRegistry()
	var b obs.Batch
	c.Instrument(&b, reg, "t")
	c.Fill(0x40, false, false)
	c.Lookup(0x40, false) // hit
	c.Lookup(0x80, false) // miss
	if got := reg.CounterValue("t.hits"); got != 0 {
		t.Fatalf("hits visible before flush: %d", got)
	}
	b.Flush()
	if h, m := reg.CounterValue("t.hits"), reg.CounterValue("t.misses"); h != 1 || m != 1 {
		t.Fatalf("flushed hits=%d misses=%d, want 1/1", h, m)
	}
	// A second flush with no new events must not double-count.
	b.Flush()
	if h := reg.CounterValue("t.hits"); h != 1 {
		t.Fatalf("idempotent flush broke: hits=%d", h)
	}
	// Events before Instrument must not replay into a new registry.
	reg2 := obs.NewRegistry()
	var b2 obs.Batch
	c.Instrument(&b2, reg2, "t")
	c.Lookup(0x40, false)
	b2.Flush()
	if h := reg2.CounterValue("t.hits"); h != 1 {
		t.Fatalf("fresh registry hits=%d, want only the post-Instrument hit", h)
	}
}
