package workload

import (
	"fmt"
	"sort"

	"heteromem/internal/addrspace"
	"heteromem/internal/isa"
	"heteromem/internal/locality"
	"heteromem/internal/mem"
	"heteromem/internal/trace"
)

// gen holds the deterministic state a kernel loop body evolves as it
// emits instructions: a splitmix64 stream seeded per kernel and PU drives
// address irregularity, so the same kernel always produces the same
// trace. Bodies emit into a small per-iteration buffer that bodySource
// drains, so a dynamic stream never materializes unless asked to.
type gen struct {
	// out is a full-length emission window; emit writes out[n] and
	// advances n. Indexed emission keeps the body's hot loop down to a
	// bounds-checked store — no slice-header rewrite, no growth branch.
	out       []trace.Inst
	n         int
	seed      uint64
	pcBase    uint64
	dataBase  uint64
	footprint uint64
	cursor    uint64
	iter      uint64
}

// next is splitmix64: deterministic, well-distributed, allocation-free.
func (g *gen) next() uint64 {
	g.seed += 0x9e3779b97f4a7c15
	z := g.seed
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (g *gen) pc(slot uint64) uint64 { return g.pcBase + slot*4 }

// seqAddr returns the next streaming address, wrapping at the footprint.
// cursor is kept reduced modulo footprint (bodies advance by at most
// bodyBufCap small strides, each well under any footprint), so the wrap
// is a compare-and-subtract instead of a hardware divide in the hottest
// loop of trace synthesis.
func (g *gen) seqAddr(stride uint64) uint64 {
	a := g.dataBase + g.cursor
	g.cursor += stride
	if g.cursor >= g.footprint {
		g.cursor -= g.footprint
	}
	return a
}

// randAddr returns a pseudo-random 8-byte-aligned address in the footprint.
func (g *gen) randAddr() uint64 {
	return g.dataBase + (g.next()%g.footprint)&^7
}

func (g *gen) emit(in trace.Inst) { g.out[g.n] = in; g.n++ }

// bodyFn appends one loop iteration to g.
type bodyFn func(g *gen)

// bodyBufCap bounds the instructions one loop iteration emits; the widest
// body (blocked matrix multiply) emits seven.
const bodyBufCap = 8

// genParams identifies one phase half's generator: the loop body plus the
// seeds that make its output deterministic. Params are immutable once
// built, so one set can be shared by any number of concurrent sources.
type genParams struct {
	body      bodyFn
	n         int
	seed      uint64
	pcBase    uint64
	dataBase  uint64
	footprint uint64
}

// source returns a fresh cursor over the generator's stream.
func (p *genParams) source() *bodySource {
	s := &bodySource{p: p}
	s.Reset()
	return s
}

// bodySource is a restartable trace.Source that synthesizes the loop
// body's dynamic stream on demand: iterations are generated one at a time
// and handed out in batches, exactly n instructions — the final
// iteration is truncated mid-body. Memory use is O(1) in the stream
// length.
type bodySource struct {
	p   *genParams
	g   gen
	pos int // instructions delivered so far
	bi  int // cursor into the current iteration's buffer
	buf [bodyBufCap]trace.Inst
}

// Reset rewinds the generator to the first instruction; the replayed
// sequence is bit-identical (the generator state is reseeded).
func (s *bodySource) Reset() {
	s.g = gen{
		seed:      s.p.seed,
		pcBase:    s.p.pcBase,
		dataBase:  s.p.dataBase,
		footprint: s.p.footprint,
	}
	if s.g.footprint == 0 {
		s.g.footprint = 4096
	}
	s.g.out = s.buf[:]
	s.pos, s.bi = 0, 0
}

// Len returns the total instruction count the source delivers.
func (s *bodySource) Len() int { return s.p.n }

// NextBatch fills up to len(dst) instructions into dst, regenerating
// loop iterations as needed; the sequence does not depend on the batch
// lengths. While dst has at least a full iteration of room, the
// generator's scratch is pointed directly at dst, so the body's appends
// land in place and the per-iteration copy disappears; the rest of an
// iteration that did not fit waits in the scratch buffer for the next
// call.
func (s *bodySource) NextBatch(dst []trace.Inst) int {
	if rem := s.p.n - s.pos; len(dst) > rem {
		dst = dst[:rem]
	}
	n := 0
	// Drain whatever is left of the current iteration first. When that
	// fills dst, the rest of the iteration stays buffered for the next
	// call.
	if s.bi < s.g.n {
		n = copy(dst, s.g.out[s.bi:s.g.n])
		s.bi += n
		if n == len(dst) {
			s.pos += n
			return n
		}
	}
	// Emit whole iterations straight into dst.
	for len(dst)-n >= bodyBufCap {
		s.g.out = dst[n : n+bodyBufCap]
		s.g.n = 0
		s.p.body(&s.g)
		s.g.iter++
		if s.g.n == 0 {
			panic("workload: loop body emitted nothing")
		}
		n += s.g.n
	}
	s.g.out, s.g.n, s.bi = s.buf[:], 0, 0
	// Tail: generate into the scratch buffer and copy the part that fits.
	for n < len(dst) {
		s.g.n = 0
		s.bi = 0
		s.p.body(&s.g)
		s.g.iter++
		if s.g.n == 0 {
			panic("workload: loop body emitted nothing")
		}
		c := copy(dst[n:], s.g.out[:s.g.n])
		s.bi = c
		n += c
	}
	s.pos += n
	return n
}

// --- CPU loop bodies ---

// streamAddCPU: the reduction inner loop — load, accumulate, advance,
// loop branch.
func streamAddCPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: g.seqAddr(8), Size: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.ALU, Dep1: 1, Dep2: 4}) // acc += v
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.ALU})                   // i++
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.Branch, Taken: true, Dep1: 1})
}

// blockedFPCPU: matrix-multiply-like — two loads with strong reuse, a
// multiply-accumulate chain, occasional store.
func blockedFPCPU(g *gen) {
	rowBase := g.dataBase + (g.iter/64%64)*512 // row reused across 64 iterations
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: rowBase + g.iter%64*8, Size: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.Load, Addr: g.seqAddr(8), Size: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.Mul, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.FP, Dep1: 1, Dep2: 7}) // acc chain
	if g.iter%64 == 63 {
		g.emit(trace.Inst{PC: g.pc(4), Kind: isa.Store, Addr: g.dataBase + g.iter/64*8%g.footprint, Size: 8, Dep1: 1})
	}
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.ALU})
	g.emit(trace.Inst{PC: g.pc(6), Kind: isa.Branch, Taken: true})
}

// stencilFPCPU: convolution-like — window loads with short reuse, FP
// accumulation, store per window.
func stencilFPCPU(g *gen) {
	base := g.seqAddr(8)
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: base, Size: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.Load, Addr: base + 8, Size: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.Load, Addr: base + 16, Size: 8})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.FP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.FP, Dep1: 1, Dep2: 4})
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Store, Addr: base, Size: 8, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(6), Kind: isa.Branch, Taken: true})
}

// transformFPCPU: DCT-like — compute-dominated FP with periodic loads.
func transformFPCPU(g *gen) {
	if g.iter%4 == 0 {
		g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: g.seqAddr(64), Size: 64})
	}
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.FP, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.Mul, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.FP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.ALU})
	if g.iter%8 == 7 {
		g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Store, Addr: g.seqAddr(8), Size: 8, Dep1: 1})
	}
	g.emit(trace.Inst{PC: g.pc(6), Kind: isa.Branch, Taken: true})
}

// irregularCPU: merge-sort-like — data-dependent loads, compare branches
// whose direction follows the data (hard to predict), pointer-chase deps.
func irregularCPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: g.randAddr(), Size: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.Load, Addr: g.randAddr(), Size: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.ALU, Dep1: 1, Dep2: 2}) // compare
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.Branch, Taken: g.next()&1 == 0, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.Store, Addr: g.seqAddr(8), Size: 8, Dep1: 2})
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Branch, Taken: true})
}

// distanceCPU: k-mean-like — load a point, FP distance to each centroid,
// compare-and-branch, occasional assignment store.
func distanceCPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: g.seqAddr(16), Size: 16})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.Load, Addr: g.dataBase + g.iter%8*64, Size: 64}) // centroid: hot
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.FP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.FP, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.ALU, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Branch, Taken: g.next()%8 != 0, Dep1: 1})
	if g.iter%8 == 0 {
		g.emit(trace.Inst{PC: g.pc(6), Kind: isa.Store, Addr: g.seqAddr(8), Size: 8, Dep1: 2})
	}
}

// --- GPU loop bodies (SIMD) ---

func streamAddGPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: g.seqAddr(32), Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDALU, Dep1: 1, Dep2: 3})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.ALU})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.Branch, Taken: true})
}

func blockedFPGPU(g *gen) {
	rowBase := g.dataBase + (g.iter/64%64)*512
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: rowBase + g.iter%16*32, Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDLoad, Addr: g.seqAddr(32), Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.SIMDFP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.SIMDFP, Dep1: 1, Dep2: 6})
	if g.iter%16 == 15 {
		g.emit(trace.Inst{PC: g.pc(4), Kind: isa.SIMDStore, Addr: g.seqAddr(32), Size: 32, Lanes: 8, Dep1: 1})
	}
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.ALU})
	g.emit(trace.Inst{PC: g.pc(6), Kind: isa.Branch, Taken: true})
}

func stencilFPGPU(g *gen) {
	base := g.seqAddr(32)
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: base, Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDLoad, Addr: base + 32, Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.SIMDFP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.SIMDStore, Addr: base, Size: 32, Lanes: 8, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.Branch, Taken: true})
}

func transformFPGPU(g *gen) {
	if g.iter%4 == 0 {
		g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: g.seqAddr(64), Size: 64, Lanes: 8})
	}
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDFP, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.SIMDFP, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.SIMDALU})
	if g.iter%8 == 7 {
		g.emit(trace.Inst{PC: g.pc(4), Kind: isa.SIMDStore, Addr: g.seqAddr(32), Size: 32, Lanes: 8, Dep1: 1})
	}
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Branch, Taken: true})
}

func irregularGPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: g.randAddr() &^ 31, Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDALU, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.Branch, Taken: g.next()&1 == 0, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.SIMDStore, Addr: g.seqAddr(32), Size: 32, Lanes: 8, Dep1: 2})
}

func distanceGPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.SIMDLoad, Addr: g.seqAddr(32), Size: 32, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.SIMDLoad, Addr: g.dataBase + g.iter%8*64, Size: 64, Lanes: 8})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.SIMDFP, Dep1: 1, Dep2: 2})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.SIMDFP, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(4), Kind: isa.ALU, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(5), Kind: isa.Branch, Taken: g.next()%8 != 0, Dep1: 1})
}

// mergeCPU is the serial merge/combination loop used by the sequential
// phases.
func mergeCPU(g *gen) {
	g.emit(trace.Inst{PC: g.pc(0), Kind: isa.Load, Addr: g.seqAddr(8), Size: 8})
	g.emit(trace.Inst{PC: g.pc(1), Kind: isa.ALU, Dep1: 1, Dep2: 3})
	g.emit(trace.Inst{PC: g.pc(2), Kind: isa.Store, Addr: g.seqAddr(8), Size: 8, Dep1: 1})
	g.emit(trace.Inst{PC: g.pc(3), Kind: isa.Branch, Taken: true})
}

// spec defines one kernel's generation parameters.
type spec struct {
	name      string
	pattern   string
	cpuBody   bodyFn
	gpuBody   bodyFn
	seqBody   bodyFn
	footprint uint64
}

var specs = map[string]spec{
	"reduction":   {"reduction", "parallel-merge-sequential", streamAddCPU, streamAddGPU, mergeCPU, 320512},
	"matrix-mul":  {"matrix-mul", "fully-parallel", blockedFPCPU, blockedFPGPU, mergeCPU, 524288},
	"convolution": {"convolution", "parallel-merge-parallel", stencilFPCPU, stencilFPGPU, mergeCPU, 65536},
	"dct":         {"dct", "fully-parallel", transformFPCPU, transformFPGPU, mergeCPU, 262144},
	"merge-sort":  {"merge-sort", "parallel-merge-sequential", irregularCPU, irregularGPU, mergeCPU, 39936},
	"k-mean":      {"k-mean", "parallel-merge-sequential-repeated", distanceCPU, distanceGPU, mergeCPU, 136192},
}

// Names returns the kernel names in Table III order.
func Names() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tableOrder(names[i]) < tableOrder(names[j]) })
	return names
}

func tableOrder(name string) int {
	for i, c := range TableIII() {
		if c.Name == name {
			return i
		}
	}
	return 99
}

func (s spec) cpuParams(phase uint64, n int) *genParams {
	return &genParams{body: s.cpuBody, n: n,
		seed: 0x1000 + phase, pcBase: 0x400000 + phase*0x1000,
		dataBase: cpuDataBase, footprint: s.footprint}
}

func (s spec) gpuParams(phase uint64, n int) *genParams {
	return &genParams{body: s.gpuBody, n: n,
		seed: 0x2000 + phase, pcBase: 0x800000 + phase*0x1000,
		dataBase: gpuDataBase, footprint: s.footprint}
}

func (s spec) seqParams(phase uint64, n int) *genParams {
	return &genParams{body: s.seqBody, n: n,
		seed: 0x3000 + phase, pcBase: 0xc00000 + phase*0x1000,
		dataBase: shrDataBase, footprint: s.footprint/2 + 4096}
}

func parallel(s spec, phase uint64, cpuN, gpuN int) Phase {
	return Phase{
		Kind:   Parallel,
		cpuGen: s.cpuParams(phase, cpuN),
		gpuGen: s.gpuParams(phase, gpuN),
	}
}

func sequential(s spec, phase uint64, n int) Phase {
	return Phase{Kind: Sequential, cpuGen: s.seqParams(phase, n)}
}

func h2d(bytes uint64) Phase {
	return Phase{Kind: Transfer, Dir: HostToDevice, Bytes: bytes, Addr: gpuDataBase}
}

func d2h(bytes uint64) Phase {
	return Phase{Kind: Transfer, Dir: DeviceToHost, Bytes: bytes, Addr: gpuDataBase}
}

func objects(s spec) []locality.Object {
	return []locality.Object{
		{Addr: cpuDataBase, Size: uint32(s.footprint / 2), Region: addrspace.CPUPrivate, User: mem.CPU},
		{Addr: gpuDataBase, Size: uint32(s.footprint / 2), Region: addrspace.GPUPrivate, User: mem.GPU},
		{Addr: shrDataBase, Size: uint32(s.footprint / 4), Region: addrspace.Shared, User: mem.CPU, Critical: true},
		{Addr: shrDataBase + s.footprint/4, Size: uint32(s.footprint / 4), Region: addrspace.Shared, User: mem.GPU},
	}
}

// Open builds the named kernel's program in streaming form: compute
// phases carry restartable generators instead of materialized streams, so
// opening a kernel is O(1) in its instruction count and replaying it
// never allocates a trace. The delivered instruction sequences are
// bit-identical to Generate's (pinned by TestOpenMatchesGenerate); the
// instruction counts, communication counts and initial transfer size
// match Table III exactly.
//
// An opened program is immutable and safe to share: every CPUSource /
// GPUSource call hands out an independent cursor.
func Open(name string) (*Program, error) {
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kernel %q (have %v)", name, Names())
	}
	p := &Program{Name: s.name, Pattern: s.pattern, Objects: objects(s)}
	switch name {
	case "reduction":
		p.Phases = []Phase{
			h2d(320512),
			parallel(s, 0, 70006, 70001),
			d2h(4096),
			sequential(s, 1, 99996),
		}
	case "matrix-mul":
		p.Phases = []Phase{
			sequential(s, 0, 16384), // initialise matrices on the host
			h2d(524288),
			parallel(s, 1, 8585229, 8585228),
			d2h(262144),
		}
	case "convolution":
		p.Phases = []Phase{
			h2d(65536),
			parallel(s, 0, 224130, 224130),
			d2h(32768),
			sequential(s, 1, 65536), // merge halo rows on the host
			parallel(s, 2, 224130, 224129),
			d2h(32768),
		}
	case "dct":
		p.Phases = []Phase{
			sequential(s, 0, 262144), // build coefficient tables
			h2d(262244),
			parallel(s, 1, 2359298, 2359298),
			d2h(131072),
		}
	case "merge-sort":
		p.Phases = []Phase{
			h2d(39936),
			parallel(s, 0, 161233, 157233),
			d2h(19968),
			sequential(s, 1, 97668), // final merge of the two halves
		}
	case "k-mean":
		// Three assignment/update rounds: centroids out, partial sums
		// back, host-side centroid update each round.
		cpuIters := []int{615922, 615922, 615921}
		gpuIters := []int{614994, 614994, 614993}
		seqIters := []int{12261, 12261, 12262}
		sizes := []uint64{136192, 8192, 8192}
		for i := 0; i < 3; i++ {
			p.Phases = append(p.Phases,
				h2d(sizes[i]),
				parallel(s, uint64(i*2), cpuIters[i], gpuIters[i]),
				d2h(8192),
				sequential(s, uint64(i*2+1), seqIters[i]),
			)
		}
	}
	return p, nil
}

// MustOpen is Open but panics on unknown kernels.
func MustOpen(name string) *Program {
	p, err := Open(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Generate builds the named kernel's program with materialized trace
// streams, for serialization, golden comparisons and tools that index
// into the traces. Simulation paths should prefer Open: it delivers the
// same instructions without the O(N) stream allocation.
func Generate(name string) (*Program, error) {
	p, err := Open(name)
	if err != nil {
		return nil, err
	}
	for i := range p.Phases {
		p.Phases[i].materialize()
	}
	return p, nil
}

// MustGenerate is Generate but panics on unknown kernels.
func MustGenerate(name string) *Program {
	p, err := Generate(name)
	if err != nil {
		panic(err)
	}
	return p
}
