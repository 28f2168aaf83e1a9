package rescache

import "heteromem/internal/sim"

// decodeEnvelope decodes a blob whatever its schema and key, which it
// returns with the result. The store decodes with decodeResult, which
// checks them; tests decode with this to see what a blob holds.
func decodeEnvelope(data []byte) (envelope, error) {
	d, err := openBlob(data)
	if err != nil {
		return envelope{}, err
	}
	env := envelope{Schema: d.schema()}
	env.Key = Key{Spec: d.string(), Kernel: d.string(), Workload: d.string(), Options: d.string()}
	if err := d.result(&env.Result, ""); err != nil {
		return envelope{}, err
	}
	return env, nil
}

// blobPath is the path of the blob of the key with the given digest.
func (s *Store) blobPath(digest string) string {
	return s.disk.blobPath(digest)
}

// EncodeBlob, DecodeBlob, DecodeResult and ReferenceDecodeBlob expose
// the blob codec, and the reference reflection decoder, to the external
// test package, whose fuzz target seeds itself from simulated results.
func EncodeBlob(schema int, key Key, res sim.Result) []byte {
	return appendEnvelope(nil, &envelope{Schema: schema, Key: key, Result: res})
}

func DecodeBlob(data []byte) (schema int, key Key, res sim.Result, err error) {
	env, err := decodeEnvelope(data)
	return env.Schema, env.Key, env.Result, err
}

func DecodeResult(data []byte, schema int, key Key) (sim.Result, error) {
	return decodeResult(data, schema, key)
}

func ReferenceDecodeBlob(data []byte) (schema int, key Key, res sim.Result, err error) {
	env, err := referenceDecodeEnvelope(data)
	return env.Schema, env.Key, env.Result, err
}
