package rescache

import "heteromem/internal/sim"

// EncodeBlob and DecodeBlob expose the blob codec to the external test
// package, whose fuzz target seeds itself from simulated results.
func EncodeBlob(schema int, key Key, res sim.Result) []byte {
	return appendEnvelope(nil, &envelope{Schema: schema, Key: key, Result: res})
}

func DecodeBlob(data []byte) (schema int, key Key, res sim.Result, err error) {
	env, err := decodeEnvelope(data)
	return env.Schema, env.Key, env.Result, err
}
