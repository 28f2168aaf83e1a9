// Command hettrace generates, inspects and converts the synthetic kernel
// traces.
//
// Usage:
//
//	hettrace -kernel reduction -info            # per-phase summary
//	hettrace -kernel dct -phase 2 -pu gpu -out dct.trc
//	hettrace -in dct.trc -dump 20               # decode a trace file
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hettrace: ")
	var (
		kernel   = flag.String("kernel", "reduction", "kernel: "+strings.Join(workload.Names(), ", "))
		info     = flag.Bool("info", false, "print per-phase trace summaries")
		phase    = flag.Int("phase", -1, "phase index to export")
		pu       = flag.String("pu", "cpu", "which PU's stream to export: cpu or gpu")
		out      = flag.String("out", "", "write the selected stream to this file (binary trace format)")
		in       = flag.String("in", "", "read and summarise a binary trace file instead")
		dump     = flag.Int("dump", 0, "print the first N records")
		saveProg = flag.String("saveprog", "", "write the whole kernel as a program file")
		loadProg = flag.String("loadprog", "", "read and summarise a program file instead")
	)
	flag.Parse()

	if *loadProg != "" {
		f, err := os.Open(*loadProg)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		p, err := workload.LoadProgram(f)
		if err != nil {
			log.Fatal(err)
		}
		c := p.Characteristics()
		fmt.Printf("%s (%s): %d CPU + %d GPU + %d serial instructions, %d transfers, %d phases\n",
			c.Name, c.Pattern, c.CPUInsts, c.GPUInsts, c.SerialInsts, c.Comms, len(p.Phases))
		return
	}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		s, err := trace.Read(f)
		if err != nil {
			log.Fatal(err)
		}
		printSummary(fmt.Sprintf("%s", *in), trace.NewCursor(s))
		dumpHead(trace.NewCursor(s), *dump)
		return
	}

	// Open (not Generate): phases stay in generator form and every
	// summary, dump and export below streams instructions on demand, so
	// the tool's memory use is O(1) in the trace length.
	p, err := workload.Open(*kernel)
	if err != nil {
		log.Fatal(err)
	}

	if *saveProg != "" {
		f, err := os.Create(*saveProg)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.SaveProgram(f, p); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote program %s (%d instructions) to %s\n", p.Name, p.TotalInstructions(), *saveProg)
		return
	}

	if *info {
		for i := range p.Phases {
			ph := &p.Phases[i]
			fmt.Printf("phase %d: %s", i, ph.Kind)
			if ph.Kind == workload.Transfer {
				fmt.Printf(" %s %d bytes\n", ph.Dir, ph.Bytes)
				continue
			}
			fmt.Println()
			if ph.CPULen() > 0 {
				printSummary("  cpu", ph.CPUSource())
			}
			if ph.GPULen() > 0 {
				printSummary("  gpu", ph.GPUSource())
			}
		}
		return
	}

	if *phase < 0 || *phase >= len(p.Phases) {
		log.Fatalf("phase %d out of range (0-%d); use -info to list phases", *phase, len(p.Phases)-1)
	}
	ph := &p.Phases[*phase]
	var src func() trace.Source
	var total int
	switch *pu {
	case "cpu":
		src, total = ph.CPUSource, ph.CPULen()
	case "gpu":
		src, total = ph.GPUSource, ph.GPULen()
	default:
		log.Fatalf("unknown PU %q (cpu or gpu)", *pu)
	}
	if total == 0 {
		log.Fatalf("phase %d has no %s stream", *phase, *pu)
	}
	dumpHead(src(), *dump)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteSource(f, src()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n", total, *out)
	}
}

func printSummary(label string, src trace.Source) {
	st := trace.SummarizeSource(src)
	fmt.Printf("%s: %d insts, %d mem ops (%d bytes), %d branches (%.0f%% taken), %d SIMD, %d comm, %d push\n",
		label, st.Total, st.MemOps, st.MemBytes, st.Branches, st.TakenRate*100, st.SIMDOps, st.CommOps, st.PushOps)
}

func dumpHead(src trace.Source, n int) {
	buf := make([]trace.Inst, max(0, min(n, src.Len())))
	for i := 0; i < len(buf); {
		k := src.NextBatch(buf[i:])
		if k == 0 {
			return
		}
		for _, in := range buf[i : i+k] {
			fmt.Printf("%6d  pc=%#08x %-10s addr=%#x size=%d deps=%d,%d taken=%v lanes=%d\n",
				i, in.PC, in.Kind, in.Addr, in.Size, in.Dep1, in.Dep2, in.Taken, in.ActiveLanes())
			i++
		}
	}
}
