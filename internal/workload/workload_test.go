package workload

import (
	"reflect"
	"testing"

	"heteromem/internal/isa"
	"heteromem/internal/trace"
)

// opened returns every kernel opened, in Table III order: phase lengths,
// transfers and objects without generating the instructions.
func opened() []*Program {
	var out []*Program
	for _, n := range Names() {
		out = append(out, MustOpen(n))
	}
	return out
}

func TestCharacteristicsMatchTableIII(t *testing.T) {
	// The generated programs must reproduce Table III exactly:
	// instruction counts, communication counts, initial transfer sizes.
	programs := opened()
	for i, want := range TableIII() {
		p := programs[i]
		if p.Name != want.Name {
			t.Fatalf("program %d is %s, want %s", i, p.Name, want.Name)
		}
		got := p.Characteristics()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s characteristics:\n got %+v\nwant %+v", want.Name, got, want)
		}
	}
}

func TestAllProgramsValidate(t *testing.T) {
	buf := make(trace.Stream, 256)
	for _, p := range opened() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		// Validate checks the materialized streams only; stream every
		// generated instruction through a batch and check it instead.
		for i := range p.Phases {
			ph := &p.Phases[i]
			for _, src := range []trace.Source{ph.CPUSource(), ph.GPUSource()} {
				for n := src.NextBatch(buf); n > 0; n = src.NextBatch(buf) {
					if err := buf[:n].Validate(); err != nil {
						t.Fatalf("%s phase %d: %v", p.Name, i, err)
					}
				}
			}
		}
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	want := []string{"reduction", "matrix-mul", "convolution", "dct", "merge-sort", "k-mean"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want Table III order %v", names, want)
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestDeterministic(t *testing.T) {
	a := MustGenerate("merge-sort")
	b := MustGenerate("merge-sort")
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range a.Phases {
		if !reflect.DeepEqual(a.Phases[i], b.Phases[i]) {
			t.Fatalf("phase %d differs between generations", i)
		}
	}
}

func TestKernelMixesDiffer(t *testing.T) {
	// Sanity: the kernels exercise different instruction mixes. Each
	// phase streams through SummarizeSource and the counts add up, so no
	// kernel is ever held in memory whole.
	stats := map[string]trace.Stats{}
	for _, name := range Names() {
		p, err := Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := trace.Stats{ByKind: map[isa.Kind]int{}}
		for i := range p.Phases {
			ph := &p.Phases[i]
			for _, src := range []trace.Source{ph.CPUSource(), ph.GPUSource()} {
				st := trace.SummarizeSource(src)
				sum.Total += st.Total
				sum.Branches += st.Branches
				sum.SIMDOps += st.SIMDOps
				for k, n := range st.ByKind {
					sum.ByKind[k] += n
				}
			}
		}
		stats[name] = sum
	}
	if len(stats) != 6 {
		t.Fatalf("summarized %d kernels, want the six of Table III", len(stats))
	}
	// matrix-mul and dct are FP-heavy; reduction has none of the CPU FP.
	if stats["matrix-mul"].ByKind[isa.FP] == 0 {
		t.Error("matrix-mul has no FP")
	}
	if stats["reduction"].ByKind[isa.FP] != 0 {
		t.Error("reduction should be integer-only")
	}
	// merge-sort is the branchiest relative to size.
	msRate := float64(stats["merge-sort"].Branches) / float64(stats["merge-sort"].Total)
	mmRate := float64(stats["matrix-mul"].Branches) / float64(stats["matrix-mul"].Total)
	if msRate <= mmRate {
		t.Errorf("merge-sort branch rate %.2f <= matrix-mul %.2f", msRate, mmRate)
	}
	// Every kernel has GPU SIMD work.
	for name, st := range stats {
		if st.SIMDOps == 0 {
			t.Errorf("%s has no SIMD ops", name)
		}
	}
}

func TestTransferPhasesWellFormed(t *testing.T) {
	for _, p := range opened() {
		var h2dSeen bool
		for _, ph := range p.Phases {
			if ph.Kind != Transfer {
				continue
			}
			if !h2dSeen {
				if ph.Dir != HostToDevice {
					t.Errorf("%s: first transfer is %v, want h2d (input starts on the CPU)", p.Name, ph.Dir)
				}
				h2dSeen = true
			}
			if ph.Bytes == 0 {
				t.Errorf("%s: zero-byte transfer", p.Name)
			}
		}
		if !h2dSeen {
			t.Errorf("%s: no transfers at all", p.Name)
		}
	}
}

func TestObjectsPresent(t *testing.T) {
	for _, p := range opened() {
		if len(p.Objects) == 0 {
			t.Errorf("%s: no objects for locality planning", p.Name)
		}
	}
}

func TestTotalInstructions(t *testing.T) {
	p := MustGenerate("reduction")
	c := p.Characteristics()
	want := c.CPUInsts + c.GPUInsts + c.SerialInsts
	if got := p.TotalInstructions(); got != want {
		t.Fatalf("TotalInstructions = %d, want %d", got, want)
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate(bogus) did not panic")
		}
	}()
	MustGenerate("bogus")
}

func TestValidateRejectsMalformedPhases(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"gpu work in sequential", Program{Name: "x", Phases: []Phase{{
			Kind: Sequential, GPU: trace.Stream{{Kind: isa.SIMDALU}},
		}}}},
		{"zero-byte transfer", Program{Name: "x", Phases: []Phase{{
			Kind: Transfer, Dir: HostToDevice,
		}}}},
		{"transfer over 4 GiB", Program{Name: "x", Phases: []Phase{{
			Kind: Transfer, Dir: HostToDevice, Bytes: MaxTransferBytes + 1,
		}}}},
		{"compute in transfer", Program{Name: "x", Phases: []Phase{{
			Kind: Transfer, Bytes: 64, CPU: trace.Stream{{Kind: isa.ALU}},
		}}}},
		{"invalid trace record", Program{Name: "x", Phases: []Phase{{
			Kind: Parallel, CPU: trace.Stream{{Kind: isa.Kind(250)}},
		}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestPhaseKindStrings(t *testing.T) {
	if Sequential.String() != "sequential" || Parallel.String() != "parallel" || Transfer.String() != "transfer" {
		t.Error("phase kind names wrong")
	}
	if HostToDevice.String() != "h2d" || DeviceToHost.String() != "d2h" {
		t.Error("direction names wrong")
	}
}

func TestScaleTransfers(t *testing.T) {
	base := MustGenerate("reduction")
	scaled, err := ScaleTransfers(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range scaled.Phases {
		orig := base.Phases[i]
		switch ph.Kind {
		case Transfer:
			if ph.Bytes != orig.Bytes*2 {
				t.Errorf("phase %d: bytes %d, want %d", i, ph.Bytes, orig.Bytes*2)
			}
		default:
			if len(ph.CPU) != len(orig.CPU) || len(ph.GPU) != len(orig.GPU) {
				t.Errorf("phase %d: compute changed by transfer scaling", i)
			}
		}
	}
	// The original must be untouched.
	if base.Phases[0].Bytes != 320512 {
		t.Error("ScaleTransfers mutated its input")
	}
	// Rounding floor: tiny factors keep at least one byte.
	tiny, err := ScaleTransfers(base, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Phases[0].Bytes == 0 {
		t.Error("scaled transfer reached zero bytes")
	}
	if _, err := ScaleTransfers(base, 0); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := ScaleTransfers(base, -1); err == nil {
		t.Error("negative factor accepted")
	}
}

func TestSourceExactCount(t *testing.T) {
	for _, n := range []int{1, 5, 6, 7, 100, 9999} {
		p := &genParams{body: streamAddCPU, n: n, seed: 1, dataBase: cpuDataBase, footprint: 4096}
		s := trace.Materialize(p.source())
		if len(s) != n {
			t.Fatalf("source(n=%d) produced %d", n, len(s))
		}
	}
}

func BenchmarkGenerateAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range Names() {
			MustGenerate(n)
		}
	}
}
