package obs

import (
	"strings"
	"testing"
)

// Registry JSON exports must iterate sorted-by-name so -metrics-json
// and metrics.json output is diff-stable regardless of the order
// components registered their instruments.

func TestWriteJSONOrderIndependent(t *testing.T) {
	build := func(names []string) string {
		reg := NewRegistry()
		for i, n := range names {
			reg.Counter(n).Add(uint64(i + 1))
		}
		reg.Gauge("g.two").Set(2)
		reg.Gauge("g.one").Set(1)
		var b strings.Builder
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// Counter values follow the name, not the registration position, so
	// the two orders describe the same state.
	a := build([]string{"cpu.instructions", "dram.bytes", "noc.hops"})
	regB := NewRegistry()
	regB.Counter("noc.hops").Add(3)
	regB.Counter("cpu.instructions").Add(1)
	regB.Counter("dram.bytes").Add(2)
	regB.Gauge("g.one").Set(1)
	regB.Gauge("g.two").Set(2)
	var bb strings.Builder
	if err := regB.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if a != bb.String() {
		t.Errorf("WriteJSON depends on registration order:\n%s\nvs\n%s", a, bb.String())
	}
	ci := strings.Index(a, `"cpu.instructions"`)
	di := strings.Index(a, `"dram.bytes"`)
	ni := strings.Index(a, `"noc.hops"`)
	if !(ci < di && di < ni) {
		t.Errorf("WriteJSON names not sorted: cpu@%d dram@%d noc@%d\n%s", ci, di, ni, a)
	}
}
