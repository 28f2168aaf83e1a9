package rescache_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
	"heteromem/internal/sim"
)

// TestResultJSONRoundTrip pins that the JSON form of a result (what
// `hetsim -json` prints, and the blob format of schema version 1) is
// canonical: for fully populated results (a real case-study run, not
// zero values), encode → decode → encode is byte-identical and the
// decoded struct compares equal. The binary blob format has the same
// property, checked by TestCodecCoversEveryResultField and
// FuzzDecodeEnvelope.
func TestResultJSONRoundTrip(t *testing.T) {
	cells, err := harness.RunCaseStudies([]string{"reduction"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no case-study cells")
	}
	for _, c := range cells {
		first, err := json.Marshal(c.Result)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.System, c.Kernel, err)
		}
		var decoded sim.Result
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatalf("%s/%s: %v", c.System, c.Kernel, err)
		}
		if decoded != c.Result {
			t.Fatalf("%s/%s: decoded result differs:\n got %+v\nwant %+v",
				c.System, c.Kernel, decoded, c.Result)
		}
		second, err := json.Marshal(decoded)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.System, c.Kernel, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s/%s: re-encoding is not byte-identical:\n first %s\nsecond %s",
				c.System, c.Kernel, first, second)
		}
	}
}

// TestResultSurvivesDiskStore drives the same populated results through
// the full disk path: Put, then Get from a fresh store on the same
// directory, must reproduce the exact struct.
func TestResultSurvivesDiskStore(t *testing.T) {
	cells, err := harness.RunCaseStudies([]string{"reduction"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := w.Put(rescache.Key{Spec: c.System, Kernel: c.Kernel, Workload: "rt"}, c.Result); err != nil {
			t.Fatal(err)
		}
	}
	r, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		got, ok := r.Get(rescache.Key{Spec: c.System, Kernel: c.Kernel, Workload: "rt"})
		if !ok {
			t.Fatalf("%s/%s: miss after Put", c.System, c.Kernel)
		}
		if got != c.Result {
			t.Fatalf("%s/%s: disk round trip differs:\n got %+v\nwant %+v",
				c.System, c.Kernel, got, c.Result)
		}
	}
}
