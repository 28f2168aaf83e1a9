package workload

import (
	"testing"

	"heteromem/internal/trace"
)

// drainEqual walks src in batches of the cores' size and checks it
// delivers exactly want, instruction for instruction.
func drainEqual(t *testing.T, label string, src trace.Source, want trace.Stream) {
	t.Helper()
	if src.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", label, src.Len(), len(want))
	}
	buf := make([]trace.Inst, 256)
	i := 0
	for {
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		for _, got := range buf[:n] {
			if i >= len(want) {
				t.Fatalf("%s: source over-delivered past %d", label, len(want))
			}
			if got != want[i] {
				t.Fatalf("%s: inst %d = %+v, want %+v", label, i, got, want[i])
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("%s: source ended at %d of %d", label, i, len(want))
	}
}

// TestOpenMatchesGenerate pins the streaming path to the materialized
// one: for every kernel, every phase's Source delivers the identical
// instruction sequence Generate produces — the property the golden
// figures rely on when the simulator replays streams directly.
func TestOpenMatchesGenerate(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			mat := MustGenerate(name)
			str := MustOpen(name)
			if len(mat.Phases) != len(str.Phases) {
				t.Fatalf("phase count: open %d, generate %d", len(str.Phases), len(mat.Phases))
			}
			if str.TotalInstructions() != mat.TotalInstructions() {
				t.Fatalf("total insts: open %d, generate %d", str.TotalInstructions(), mat.TotalInstructions())
			}
			if got, want := str.Characteristics(), mat.Characteristics(); got != want {
				t.Fatalf("characteristics: open %+v, generate %+v", got, want)
			}
			for i := range mat.Phases {
				mph, sph := &mat.Phases[i], &str.Phases[i]
				drainEqual(t, "cpu", sph.CPUSource(), mph.CPU)
				drainEqual(t, "gpu", sph.GPUSource(), mph.GPU)
			}
		})
	}
}

// TestSourceResetReplaysIdentically checks the restartability contract:
// after a partial or full pass, Reset rewinds a generator-backed source
// to the exact same sequence.
func TestSourceResetReplaysIdentically(t *testing.T) {
	p := MustOpen("convolution")
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Kind == Transfer {
			continue
		}
		src := ph.CPUSource()
		first := trace.Materialize(src)
		// Partial pass, then rewind.
		src.Reset()
		src.NextBatch(make([]trace.Inst, 1000))
		src.Reset()
		second := trace.Materialize(src)
		if len(first) != len(second) {
			t.Fatalf("phase %d: replay length %d != %d", i, len(second), len(first))
		}
		for j := range first {
			if first[j] != second[j] {
				t.Fatalf("phase %d inst %d: %+v != %+v after Reset", i, j, second[j], first[j])
			}
		}
	}
}

// TestSourcesAreIndependent checks that two sources from one shared
// phase do not perturb each other — the property program interning in
// the sweep harness relies on.
func TestSourcesAreIndependent(t *testing.T) {
	p := MustOpen("reduction")
	ph := &p.Phases[1] // parallel phase
	a, b := ph.CPUSource(), ph.CPUSource()
	var av, a2 [1]trace.Inst
	if a.NextBatch(av[:]) != 1 {
		t.Fatal("first pull delivered nothing")
	}
	b.NextBatch(make([]trace.Inst, 101))
	a.NextBatch(a2[:])
	if av == a2 {
		t.Fatal("source a did not advance")
	}
	// Walking b must not have skipped a ahead: a's second pull matches
	// the materialized stream's second instruction.
	want := trace.Materialize(ph.CPUSource())
	if av[0] != want[0] || a2[0] != want[1] {
		t.Fatalf("interleaved pulls diverged: got %+v,%+v want %+v,%+v", av[0], a2[0], want[0], want[1])
	}
}

// bodyRef is the definition of a generator's stream, independent of
// NextBatch: loop iterations run one at a time into a scratch buffer
// and are handed out instruction by instruction.
type bodyRef struct {
	p   *genParams
	g   gen
	bi  int
	buf [bodyBufCap]trace.Inst
}

func newBodyRef(p *genParams) *bodyRef {
	r := &bodyRef{p: p, g: p.source().g}
	r.g.out = r.buf[:]
	return r
}

func (r *bodyRef) next() trace.Inst {
	if r.bi >= r.g.n {
		r.g.n, r.bi = 0, 0
		r.p.body(&r.g)
		r.g.iter++
	}
	r.bi++
	return r.g.out[r.bi-1]
}

// TestNextBatchLengthsDeliverSameSequence pulls every generator-backed
// phase half of every kernel through batches shorter than one loop
// iteration (1, 7), of about one iteration (8, 9), of the cores' size
// (256) and longer than the whole stream, so NextBatch's three arms —
// draining a part-delivered iteration, emitting whole iterations in
// place and generating the tail into scratch — all run, and checks each
// delivers exactly the reference sequence and then stops.
func TestNextBatchLengthsDeliverSameSequence(t *testing.T) {
	for _, name := range Names() {
		p := MustOpen(name)
		for i := range p.Phases {
			ph := &p.Phases[i]
			for pu, gp := range map[string]*genParams{"cpu": ph.cpuGen, "gpu": ph.gpuGen} {
				if gp == nil {
					continue
				}
				for _, size := range []int{1, 7, 8, 9, 256, gp.n + 1} {
					ref, src := newBodyRef(gp), gp.source()
					dst := make([]trace.Inst, size)
					got := 0
					for {
						n := src.NextBatch(dst)
						if n == 0 {
							break
						}
						if got+n > gp.n {
							t.Fatalf("%s phase %d %s, batch %d: over-delivered past %d", name, i, pu, size, gp.n)
						}
						for j, in := range dst[:n] {
							if want := ref.next(); in != want {
								t.Fatalf("%s phase %d %s, batch %d: inst %d = %+v, want %+v",
									name, i, pu, size, got+j, in, want)
							}
						}
						got += n
					}
					if got != gp.n {
						t.Fatalf("%s phase %d %s, batch %d: delivered %d of %d", name, i, pu, size, got, gp.n)
					}
				}
			}
		}
	}
}
