// Command hetcodegen emits the per-memory-model pseudo-source for the
// evaluation kernels (the Section V-C programmability study) and prints
// Table V.
//
// Usage:
//
//	hetcodegen -table                      # Table V
//	hetcodegen -kernel reduction -model pas  # show generated source
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	"heteromem/internal/addrspace"
	"heteromem/internal/codegen"
	"heteromem/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetcodegen: ")
	var (
		kernel    = flag.String("kernel", "", "kernel to emit source for")
		model     = flag.String("model", "unified", "memory model: uni, dis, pas, adsm")
		table     = flag.Bool("table", false, "print Table V")
		commOnly  = flag.Bool("comm", false, "print only communication-handling lines")
		annotated = flag.Bool("annotate", false, "prefix each line with its class")
	)
	flag.Parse()

	m, err := checkFlags(*kernel, *model, *commOnly, *annotated)
	if err != nil {
		log.Fatal(err)
	}
	if *table || *kernel == "" {
		fmt.Println(harness.RenderTable5())
		if *kernel == "" {
			return
		}
	}

	var k codegen.Kernel
	found := false
	for _, c := range codegen.Kernels() {
		if c.Name == *kernel {
			k, found = c, true
		}
	}
	if !found {
		var names []string
		for _, c := range codegen.Kernels() {
			names = append(names, c.Name)
		}
		log.Fatalf("unknown kernel %q (have %s)", *kernel, strings.Join(names, ", "))
	}

	fmt.Printf("// %s under the %v memory model\n", k.Name, m)
	for _, l := range codegen.Emit(k, m) {
		if *commOnly && l.Class != codegen.Comm {
			continue
		}
		if *annotated {
			fmt.Printf("%-8s %s\n", "["+l.Class.String()+"]", l.Text)
		} else {
			fmt.Println(l.Text)
		}
	}
	comp, comm := codegen.Count(k, m)
	fmt.Printf("// %d compute lines, %d communication lines\n", comp, comm)
}

// checkFlags parses the -model flag and rejects the flags that shape a
// kernel's source when no -kernel is given, before anything is printed.
func checkFlags(kernel, model string, commOnly, annotated bool) (addrspace.Model, error) {
	m, err := addrspace.ParseModel(strings.ToLower(model))
	if err != nil {
		return 0, err
	}
	if kernel == "" && (commOnly || annotated) {
		return 0, errors.New("-comm and -annotate need -kernel")
	}
	return m, nil
}
