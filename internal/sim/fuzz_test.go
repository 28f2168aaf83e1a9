package sim

import (
	"bytes"
	"testing"

	"heteromem/internal/isa"
	"heteromem/internal/systems"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// Budgets that keep one fuzz execution short. A program over either is
// skipped, not failed: its cost grows with its size, which says nothing
// about robustness.
const (
	// fuzzMaxInsts bounds the instructions of every phase together.
	fuzzMaxInsts = 20000
	// fuzzMaxPushBytes bounds the bytes all push records move: a push
	// walks its range line by line.
	fuzzMaxPushBytes = 1 << 20
)

// fuzzProgram is the reduction kernel with every trace cut to its first
// few records, so the seed exercises each phase kind in a small file.
func fuzzProgram(tb testing.TB) []byte {
	tb.Helper()
	p := workload.MustGenerate("reduction")
	for i := range p.Phases {
		ph := &p.Phases[i]
		ph.CPU = ph.CPU[:min(len(ph.CPU), 40)]
		ph.GPU = ph.GPU[:min(len(ph.GPU), 40)]
	}
	return saveProgram(tb, p)
}

// wrappedPushProgram is a one-phase program whose single record pushes
// a range that ends 10 bytes below 2^64: walking it line by line by an
// address bound wrapped to zero and never ended.
func wrappedPushProgram(tb testing.TB) []byte {
	tb.Helper()
	return saveProgram(tb, &workload.Program{
		Name: "wrapped-push",
		Phases: []workload.Phase{{
			Kind: workload.Sequential,
			CPU:  trace.Stream{{Kind: isa.Push, Addr: 1<<64 - 100, Size: 90, PushLevel: trace.PushShared}},
		}},
	})
}

func saveProgram(tb testing.TB, p *workload.Program) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := workload.SaveProgram(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSimulateProgram runs every program the loader accepts, within the
// budgets above, on the LRB case study. The simulator must return, with
// a result or an error, and never panic or hang; a result must account
// for every instruction of the program.
func FuzzSimulateProgram(f *testing.F) {
	wrapped := wrappedPushProgram(f)
	if _, err := workload.LoadProgram(bytes.NewReader(wrapped)); err == nil {
		f.Fatal("program with a wrapping push range accepted")
	}
	f.Add(wrapped)
	f.Add(fuzzProgram(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := workload.LoadProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p.TotalInstructions() > fuzzMaxInsts {
			t.Skip("over the instruction budget")
		}
		var pushBytes uint64
		for i := range p.Phases {
			for _, s := range []trace.Stream{p.Phases[i].CPU, p.Phases[i].GPU} {
				for _, in := range s {
					if in.Kind == isa.Push {
						pushBytes += uint64(in.Size)
					}
				}
			}
		}
		if pushBytes > fuzzMaxPushBytes {
			t.Skip("over the push-byte budget")
		}
		s := MustNew(systems.LRB())
		res, err := s.Run(p)
		if err != nil {
			return
		}
		// The protocol may inject ownership and fault instructions, so a
		// result counts at least the program's own.
		if got := res.CPU.Instructions + res.GPU.Instructions; got < p.TotalInstructions() {
			t.Fatalf("result counts %d instructions, program has %d", got, p.TotalInstructions())
		}
	})
}
