package xlat

import (
	"fmt"
	"math/bits"
)

// TLB models one translation lookaside buffer: set-associative, LRU,
// with a configurable page size. Section II-A1 notes that a virtually
// unified address space lets each PU pick its own page size — GPUs use
// large pages to cover streaming working sets with few entries — but
// that differing page-table formats complicate TLB and
// memory-management design. Reach is entries × page size, so the same
// working set costs different miss counts per PU. The same structure
// also serves as the walk cache (a "TLB" over last-level page-table
// pages).
//
// The TLB is untimed: Lookup reports hit/miss and installs on miss; the
// page-walk cost of a miss is priced by the caller
// (memsys.TranslationStage charges it through the clock).
type TLB struct {
	pageBits uint
	sets     [][]tlbEntry
	setMask  uint64
	tick     uint64
}

type tlbEntry struct {
	vpn     uint64
	valid   bool
	lastUse uint64
}

// NewTLB returns a TLB with the given number of entries (power of two),
// associativity, and page size (power of two).
func NewTLB(entries, ways int, pageSize uint64) (*TLB, error) {
	switch {
	case entries <= 0 || bits.OnesCount(uint(entries)) != 1:
		return nil, fmt.Errorf("xlat: TLB entries %d not a positive power of two", entries)
	case ways <= 0 || entries%ways != 0:
		return nil, fmt.Errorf("xlat: TLB ways %d does not divide entries %d", ways, entries)
	case pageSize == 0 || pageSize&(pageSize-1) != 0:
		return nil, fmt.Errorf("xlat: TLB page size %d not a power of two", pageSize)
	}
	numSets := entries / ways
	t := &TLB{
		pageBits: uint(bits.TrailingZeros64(pageSize)),
		sets:     make([][]tlbEntry, numSets),
		setMask:  uint64(numSets - 1),
	}
	backing := make([]tlbEntry, entries)
	for i := range t.sets {
		t.sets[i], backing = backing[:ways], backing[ways:]
	}
	return t, nil
}

// MustNewTLB is NewTLB but panics on configuration error.
func MustNewTLB(entries, ways int, pageSize uint64) *TLB {
	t, err := NewTLB(entries, ways, pageSize)
	if err != nil {
		panic(err)
	}
	return t
}

// PageSize returns the TLB's page size in bytes.
func (t *TLB) PageSize() uint64 { return 1 << t.pageBits }

// Reach returns the address range one full TLB covers.
func (t *TLB) Reach() uint64 {
	return uint64(len(t.sets)*len(t.sets[0])) << t.pageBits
}

// Lookup translates addr's page, reporting whether it hit. A miss
// installs the entry (the page walk itself is priced by the caller).
func (t *TLB) Lookup(addr uint64) bool {
	t.tick++
	vpn := addr >> t.pageBits
	set := t.sets[vpn&t.setMask]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lastUse = t.tick
			return true
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = tlbEntry{vpn: vpn, valid: true, lastUse: t.tick}
	return false
}

// Flush invalidates every entry (a shootdown).
func (t *TLB) Flush() {
	for s := range t.sets {
		for i := range t.sets[s] {
			t.sets[s][i] = tlbEntry{}
		}
	}
}

func (t *TLB) String() string {
	return fmt.Sprintf("tlb(%d entries, %dB pages, reach %dKB)",
		len(t.sets)*len(t.sets[0]), t.PageSize(), t.Reach()>>10)
}
