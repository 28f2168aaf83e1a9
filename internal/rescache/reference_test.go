package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"

	"heteromem/internal/sim"
)

// The reference codec: the plain recursive reflection walks the blob
// format was first written with. The plan in codec.go must agree with
// it on every layout digest, every encoded byte and every decoded blob.

// referenceLayoutDigest walks t and digests its leaves' paths and kinds.
func referenceLayoutDigest(t reflect.Type) ([layoutLen]byte, error) {
	var b strings.Builder
	err := referenceDescribe(&b, t, t.Name())
	sum := sha256.Sum256([]byte(b.String()))
	return [layoutLen]byte(sum[:layoutLen]), err
}

func referenceDescribe(b *strings.Builder, t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("rescache: cannot encode %s.%s: unexported field", path, f.Name)
			}
			if err := referenceDescribe(b, f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		return referenceDescribe(b, t.Elem(), fmt.Sprintf("%s[%d]", path, t.Len()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.String:
		fmt.Fprintf(b, "%s %s\n", path, t.Kind())
		return nil
	}
	return fmt.Errorf("rescache: cannot encode %s: %s field", path, t.Kind())
}

// referenceAppendResult appends res's leaves to buf.
func referenceAppendResult(buf []byte, res *sim.Result) []byte {
	return referenceAppendValue(buf, reflect.ValueOf(res).Elem())
}

func referenceAppendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = referenceAppendValue(buf, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = referenceAppendValue(buf, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		buf = binary.AppendUvarint(buf, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = binary.AppendVarint(buf, v.Int())
	case reflect.String:
		buf = appendString(buf, v.String())
	}
	return buf
}

// referenceDecodeEnvelope is decodeEnvelope with the result decoded by
// a reflection walk.
func referenceDecodeEnvelope(data []byte) (envelope, error) {
	d, err := openBlob(data)
	if err != nil {
		return envelope{}, err
	}
	env := envelope{Schema: d.schema()}
	env.Key = Key{Spec: d.string(), Kernel: d.string(), Workload: d.string(), Options: d.string()}
	d.referenceValue(reflect.ValueOf(&env.Result).Elem())
	switch {
	case d.bad:
		return envelope{}, errShort
	case len(d.data) > 0:
		return envelope{}, errExtra
	}
	return env, nil
}

func (d *decoder) referenceValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField() && !d.bad; i++ {
			d.referenceValue(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len() && !d.bad; i++ {
			d.referenceValue(v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if x := d.uvarint(); !v.OverflowUint(x) {
			v.SetUint(x)
		} else {
			d.fail()
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if x := d.varint(); !v.OverflowInt(x) {
			v.SetInt(x)
		} else {
			d.fail()
		}
	case reflect.String:
		v.SetString(d.string())
	default:
		d.fail()
	}
}
