package harness

import (
	"fmt"
	"strings"

	"heteromem/internal/report"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/workload"
)

// SensitivityPoint is one (scale, system) measurement of the
// transfer-volume sweep.
type SensitivityPoint struct {
	Scale  float64
	System string
	Result sim.Result
}

// RunTransferSensitivity sweeps the kernel's communication volume over
// the given scale factors across the five case-study systems. It shows
// where the crossovers fall: at small volumes the fixed PCI-E latency
// dominates; at large volumes the 16 GB/s link rate does, and the gap to
// the memory-controller path keeps widening.
func RunTransferSensitivity(kernel string, scales []float64) ([]SensitivityPoint, error) {
	base, _, err := internProgram(kernel)
	if err != nil {
		return nil, err
	}
	var out []SensitivityPoint
	for _, scale := range scales {
		p, err := workload.ScaleTransfers(base, scale)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems.CaseStudies() {
			s, err := sim.New(sys)
			if err != nil {
				return nil, err
			}
			res, err := s.Run(p)
			if err != nil {
				return nil, err
			}
			out = append(out, SensitivityPoint{Scale: scale, System: sys.Name, Result: res})
		}
	}
	return out, nil
}

// RenderSensitivity renders the sweep as communication share per system
// and scale.
func RenderSensitivity(kernel string, points []SensitivityPoint) string {
	scales := []float64{}
	seenScale := map[float64]bool{}
	sysNames := []string{}
	seenSys := map[string]bool{}
	byKey := map[string]SensitivityPoint{}
	key := func(scale float64, system string) string {
		return fmt.Sprintf("%g/%s", scale, system)
	}
	for _, pt := range points {
		if !seenScale[pt.Scale] {
			seenScale[pt.Scale] = true
			scales = append(scales, pt.Scale)
		}
		if !seenSys[pt.System] {
			seenSys[pt.System] = true
			sysNames = append(sysNames, pt.System)
		}
		byKey[key(pt.Scale, pt.System)] = pt
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Transfer-volume sensitivity: %s (communication share of total time)\n\n", kernel)
	tbl := report.Table{Headers: append([]string{"transfer scale"}, sysNames...)}
	for _, scale := range scales {
		row := []interface{}{fmt.Sprintf("%gx", scale)}
		for _, sys := range sysNames {
			pt := byKey[key(scale, sys)]
			row = append(row, report.Pct(pt.Result.CommFraction()))
		}
		tbl.AddRow(row...)
	}
	b.WriteString(tbl.String())

	// Slowdown over IDEAL-HETERO at each scale: the crossover view.
	b.WriteString("\nSlowdown over IDEAL-HETERO\n")
	tbl2 := report.Table{Headers: append([]string{"transfer scale"}, sysNames...)}
	for _, scale := range scales {
		ideal := byKey[key(scale, "IDEAL-HETERO")]
		row := []interface{}{fmt.Sprintf("%gx", scale)}
		for _, sys := range sysNames {
			pt := byKey[key(scale, sys)]
			slow := float64(pt.Result.Total()) / float64(ideal.Result.Total())
			row = append(row, fmt.Sprintf("%.3fx", slow))
		}
		tbl2.AddRow(row...)
	}
	b.WriteString(tbl2.String())
	return b.String()
}
