package cache

import "testing"

// A directory larger than one chunk builds only its first chunk.
// Lookups, probes and invalidations of sets in other chunks
// answer "absent" without materializing them, the first fill into a
// chunk materializes exactly that chunk, and a second run over the
// same footprint allocates nothing.
func TestChunksMaterializeOnFirstFill(t *testing.T) {
	c := MustNew(Config{Name: "dir", SizeBytes: 64 << 20, LineBytes: 64, Ways: 16, Policy: LRU})
	if m, n := c.Chunks(); m != 1 || n != 64 {
		t.Fatalf("new 64 MB directory: %d of %d chunks materialized, want 1 of 64", m, n)
	}
	far := uint64(5*chunkSets) << 6 // set 5*1024: chunk 5
	if c.Lookup(far, true) || c.Probe(far) {
		t.Fatal("untouched chunk reported a resident line")
	}
	if present, _ := c.Invalidate(far); present {
		t.Fatal("untouched chunk invalidated a line")
	}
	if st := c.Stats(); st.Accesses != 1 || st.Misses != 1 {
		t.Fatalf("lookup on an untouched chunk counted %+v, want one access and one miss", st)
	}
	if m, _ := c.Chunks(); m != 1 {
		t.Fatalf("reads materialized %d chunks, want 1", m)
	}

	run := func() {
		for i := uint64(0); i < 64; i++ {
			c.Fill(far+i<<6, false, i%2 == 0)
		}
	}
	run()
	if m, _ := c.Chunks(); m != 2 {
		t.Fatalf("fills into one chunk materialized %d chunks, want 2", m)
	}
	if !c.Lookup(far, false) || c.ValidBlocks() != 64 {
		t.Fatalf("filled lines not resident: %d valid blocks", c.ValidBlocks())
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("refill of the same footprint allocated %.0f times", allocs)
	}
	if m, _ := c.Chunks(); m != 2 {
		t.Fatalf("after refill: %d chunks, want 2", m)
	}
	if wb := c.FlushAll(); wb != 32 || c.ValidBlocks() != 0 {
		t.Fatalf("FlushAll wrote back %d (want 32), left %d valid", wb, c.ValidBlocks())
	}
}
