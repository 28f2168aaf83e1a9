// Advisor: the paper's future work (Section VII) made runnable — score
// the four address-space models on performance, programmability,
// locality flexibility and hardware cost, and recommend one. Also
// demonstrates the per-PU page-size trade-off of Section II-A1 by
// driving the simulator's real translation front-end
// (memsys.TranslationStage) — the same TLB + page-walk model the
// translation design axis puts on the timed access path.
//
//	go run ./examples/advisor
package main

import (
	"fmt"
	"log"

	"heteromem/internal/clock"
	"heteromem/internal/guideline"
	"heteromem/internal/memsys"
	"heteromem/internal/report"
	"heteromem/internal/xlat"
)

func main() {
	log.SetFlags(0)

	fmt.Println("== Design-option efficiency scorecard ==")
	scores, err := guideline.Evaluate([]string{"reduction", "merge-sort"}, guideline.DefaultWeights())
	if err != nil {
		log.Fatal(err)
	}
	tbl := report.Table{
		Headers: []string{"model", "perf overhead", "comm lines", "locality options", "hw cost", "composite"},
	}
	for _, s := range scores {
		tbl.AddRow(s.Model, report.Pct(s.PerfOverhead), s.CommLines, s.LocalityOptions, s.HardwareCost, report.F3(s.Composite))
	}
	fmt.Print(tbl.String())

	best, why, err := guideline.Recommend(scores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommendation: %v\n  %s\n", best, why)

	// Different designers, different weights, different answers.
	fmt.Println("\n== Weighting scenarios ==")
	scenarios := []struct {
		name string
		w    guideline.Weights
	}{
		{"software-first (programmability only)", guideline.Weights{Programmability: 1}},
		{"silicon-first (hardware cost only)", guideline.Weights{HardwareCost: 1}},
		{"architecture-first (flexibility only)", guideline.Weights{Flexibility: 1}},
	}
	for _, sc := range scenarios {
		scores, err := guideline.Evaluate([]string{"reduction"}, sc.w)
		if err != nil {
			log.Fatal(err)
		}
		m, _, err := guideline.Recommend(scores)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s -> %v\n", sc.name, m)
	}

	// Section II-A1: a virtually unified space lets each PU pick its own
	// page size; the GPU's streaming working sets want large pages. The
	// stage below is the exact translation front-end the simulator runs
	// when a system selects the translation axis, so the demo's numbers
	// and the sweep's numbers come from one model.
	fmt.Println("\n== Per-PU page sizes (Section II-A1) ==")
	const stream = 32 << 20 // a 32 MB streaming working set
	for _, cfg := range []struct {
		label  string
		pu     memsys.PU
		preset string
	}{
		{"CPU, 4KB pages", memsys.CPU, "4k"},
		{"GPU, 4KB pages", memsys.GPU, "4k"},
		{"GPU, 2MB pages", memsys.GPU, "2m"},
	} {
		stage, err := memsys.NewTranslationStage(xlat.MustParsePreset(cfg.preset))
		if err != nil {
			log.Fatal(err)
		}
		var now clock.Time
		for pass := 0; pass < 2; pass++ {
			for a := uint64(0); a < stream; a += 256 {
				now = stage.Translate(cfg.pu, a, now)
			}
		}
		st := stage.Stats()
		missRate := float64(st.Misses[cfg.pu]) / float64(st.Lookups[cfg.pu])
		fmt.Printf("%-16s %v: miss rate %.4f, %v walking page tables, over a %dMB stream\n",
			cfg.label, stage.TLB[cfg.pu], missRate,
			report.Dur(clock.Duration(st.WalkPS[cfg.pu])), stream>>20)
	}
	fmt.Println("\nLarge GPU pages collapse the TLB miss rate — and the page-walk time")
	fmt.Println("behind it — on streams: one of the hardware options a per-PU memory")
	fmt.Println("model keeps open. `hetsweep -figure 5 -xlat 2m` prices the same")
	fmt.Println("trade-off inside the full five-system comparison.")
}
