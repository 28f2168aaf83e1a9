// Package coherence implements a directory-based hardware coherence
// protocol over the two processing units' private caches. The paper's
// motivation (Sections I-II) is that a unified, fully coherent,
// strongly consistent memory system is the ideal programming target but
// expensive to build across heterogeneous PUs; this package supplies the
// machinery so that cost can be measured rather than asserted: a
// directory at the shared cache tracks which PU holds each line and in
// what state, and cross-PU accesses pay invalidation and
// forced-writeback traffic.
//
// The protocol is MSI at PU granularity (each PU's private hierarchy is
// one coherence domain, the standard arrangement for CPU+GPU systems):
//
//   - A read of a line another PU holds Modified forces a writeback and
//     downgrades both to Shared.
//   - A write invalidates every other PU's copy and takes Modified.
//   - Evictions silently drop sharers; dirty evictions clear ownership.
package coherence

import "fmt"

// State is a line's directory state.
type State uint8

const (
	// Invalid: no PU holds the line.
	Invalid State = iota
	// Shared: one or more PUs hold a clean copy.
	Shared
	// Modified: exactly one PU holds a dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

type line struct {
	state   State
	sharers []bool
	owner   int
}

// Action describes what a coherence access requires of the memory
// system, so the hierarchy can price it.
type Action struct {
	// Invalidations is how many remote copies must be invalidated.
	Invalidations int
	// Writeback reports a remote Modified copy must be written back
	// before the access proceeds, and names the node holding it.
	Writeback     bool
	WritebackNode int
	// Messages is the total protocol messages on the interconnect
	// (requests, invalidations, acks, data forwards).
	Messages int
}

// Directory tracks the coherence state of every line resident in any
// private cache. Nodes are coherence domains (one per PU's private
// hierarchy), identified by index so the package stays independent of
// the rest of the simulator.
type Directory struct {
	lineBytes uint64
	nodes     int
	lines     map[uint64]*line
}

// NewDirectory returns an empty directory tracking lineBytes-sized
// lines across nodes coherence domains. lineBytes must be a power of
// two and nodes at least two (one domain has nothing to be coherent
// with).
func NewDirectory(lineBytes uint64, nodes int) (*Directory, error) {
	if lineBytes == 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("coherence: line size %d not a power of two", lineBytes)
	}
	if nodes < 2 {
		return nil, fmt.Errorf("coherence: %d nodes; need at least 2", nodes)
	}
	return &Directory{lineBytes: lineBytes, nodes: nodes, lines: make(map[uint64]*line)}, nil
}

// MustNewDirectory is NewDirectory but panics on configuration error.
func MustNewDirectory(lineBytes uint64, nodes int) *Directory {
	d, err := NewDirectory(lineBytes, nodes)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Directory) lineOf(addr uint64) uint64 { return addr &^ (d.lineBytes - 1) }

// Access records node reading or writing addr and returns the coherence
// work the access requires. It panics on an out-of-range node, which is
// always a wiring bug.
func (d *Directory) Access(node int, addr uint64, write bool) Action {
	if node < 0 || node >= d.nodes {
		panic(fmt.Sprintf("coherence: node %d out of range [0,%d)", node, d.nodes))
	}
	key := d.lineOf(addr)
	ln := d.lines[key]
	if ln == nil {
		ln = &line{sharers: make([]bool, d.nodes)}
		d.lines[key] = ln
	}
	var act Action
	if write {
		for p := 0; p < d.nodes; p++ {
			if p != node && ln.sharers[p] {
				act.Invalidations++
				act.Messages += 2 // invalidate + ack
				if ln.state == Modified && ln.owner == p {
					act.Writeback = true
					act.WritebackNode = p
					act.Messages++ // data writeback
				}
				ln.sharers[p] = false
			}
		}
		ln.state = Modified
		ln.owner = node
		ln.sharers[node] = true
	} else {
		if ln.state == Modified && ln.owner != node {
			act.Writeback = true
			act.WritebackNode = ln.owner
			act.Messages += 3 // forward request + data + downgrade ack
			ln.state = Shared
		}
		if ln.state == Invalid {
			ln.state = Shared
		}
		ln.sharers[node] = true
	}
	return act
}

// Evict records node dropping its copy of addr's line.
func (d *Directory) Evict(node int, addr uint64) {
	key := d.lineOf(addr)
	ln := d.lines[key]
	if ln == nil {
		return
	}
	ln.sharers[node] = false
	if ln.state == Modified && ln.owner == node {
		ln.state = Invalid
	}
	any := false
	for p := 0; p < d.nodes; p++ {
		any = any || ln.sharers[p]
	}
	if !any {
		delete(d.lines, key)
	} else if ln.state == Modified {
		// The owner left but another sharer remains: degrade to Shared.
		ln.state = Shared
	}
}

// StateOf returns the directory state of addr's line.
func (d *Directory) StateOf(addr uint64) State {
	if ln := d.lines[d.lineOf(addr)]; ln != nil {
		return ln.state
	}
	return Invalid
}

// SharedBy reports whether node currently holds addr's line.
func (d *Directory) SharedBy(node int, addr uint64) bool {
	if ln := d.lines[d.lineOf(addr)]; ln != nil {
		return ln.sharers[node]
	}
	return false
}

// TrackedLines returns how many lines the directory currently tracks —
// the directory storage cost the paper's scalability concern is about.
func (d *Directory) TrackedLines() int { return len(d.lines) }
