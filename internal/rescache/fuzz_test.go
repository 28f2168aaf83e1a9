package rescache_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"heteromem/internal/harness"
	"heteromem/internal/rescache"
)

// FuzzDecodeEnvelope feeds the blob decoder arbitrary bytes. It must
// never panic, and any input it accepts must re-encode to the same
// bytes: the encoding is canonical, so an accepted blob is exactly the
// one Put would have written. The probe's decoder, which checks the
// schema and key in place, must accept exactly the blobs of its own
// schema and key, and return the same result. The reference decoder,
// the plain reflection walk the plan replaced, must accept exactly the
// blobs the plan's decoder accepts and decode them to the same result.
// The corpus is seeded with blobs of the case-study results, their
// truncations and a blob of the JSON-envelope format.
func FuzzDecodeEnvelope(f *testing.F) {
	cells, err := harness.RunCaseStudies([]string{"reduction"})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range cells {
		key := rescache.Key{Spec: c.System, Kernel: c.Kernel, Workload: "fuzz"}
		blob := rescache.EncodeBlob(rescache.SchemaVersion, key, c.Result)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:len(blob)-1])
	}
	v1, err := json.Marshal(map[string]any{"schema": 1, "key": rescache.Key{Spec: "s"}, "result": cells[0].Result})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		schema, key, res, err := rescache.DecodeBlob(data)
		rschema, rkey, rres, rerr := rescache.ReferenceDecodeBlob(data)
		if (err == nil) != (rerr == nil) || err == nil && (schema != rschema || key != rkey || res != rres) {
			t.Fatalf("plan and reference decoders disagree: %v, %v", err, rerr)
		}
		if err != nil {
			if _, perr := rescache.DecodeResult(data, schema, key); perr == nil {
				t.Fatalf("probe decoder accepted a blob the envelope decoder rejects (%v)", err)
			}
			return
		}
		if again := rescache.EncodeBlob(schema, key, res); !bytes.Equal(again, data) {
			t.Fatalf("accepted blob re-encodes differently:\n  in %x\n out %x", data, again)
		}
		if got, err := rescache.DecodeResult(data, schema, key); err != nil || got != res {
			t.Fatalf("probe decoder: %v, result equal %v", err, got == res)
		}
		other := key
		other.Options += "x"
		if _, err := rescache.DecodeResult(data, schema, other); err == nil {
			t.Fatal("probe decoder accepted a blob of another key")
		}
		if _, err := rescache.DecodeResult(data, schema+1, key); err == nil {
			t.Fatal("probe decoder accepted a blob of another schema")
		}
	})
}
