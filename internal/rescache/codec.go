package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"heteromem/internal/sim"
)

// A blob is a header — magic, the layout digest, the schema version and
// the four key strings — followed by the sim.Result, written by one
// reflection walk in field order: unsigned integers as uvarints, signed
// integers as zigzag varints, strings as a uvarint length and the bytes,
// arrays and structs element by element. The encoding is canonical: the
// decoder accepts only minimal varints and no trailing bytes, so a blob
// it accepts re-encodes to the same bytes.

// magic opens every blob.
var magic = [4]byte{'H', 'M', 'R', 'B'}

// layoutLen is the length of the layout digest in the header.
const layoutLen = 8

// resultLayout is the digest of sim.Result's layout: every leaf's field
// path and kind, in walk order. Adding, removing, reordering, renaming
// or retyping a field changes it, so blobs written before the change
// read back as stale misses instead of decoding into the wrong fields.
// layoutErr is set if sim.Result has a field the walk cannot encode.
var resultLayout, layoutErr = layoutDigest(reflect.TypeFor[sim.Result]())

var (
	errMagic  = errors.New("not a result blob")
	errLayout = errors.New("written under another sim.Result layout")
	errShort  = errors.New("truncated or malformed blob")
	errExtra  = errors.New("trailing bytes after the result")
	errStale  = errors.New("written under another schema or key")
)

// layoutDigest walks t and digests its leaves' paths and kinds.
func layoutDigest(t reflect.Type) ([layoutLen]byte, error) {
	var b strings.Builder
	err := describe(&b, t, t.Name())
	sum := sha256.Sum256([]byte(b.String()))
	return [layoutLen]byte(sum[:layoutLen]), err
}

func describe(b *strings.Builder, t reflect.Type, path string) error {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("rescache: cannot encode %s.%s: unexported field", path, f.Name)
			}
			if err := describe(b, f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		return describe(b, t.Elem(), fmt.Sprintf("%s[%d]", path, t.Len()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.String:
		fmt.Fprintf(b, "%s %s\n", path, t.Kind())
		return nil
	}
	return fmt.Errorf("rescache: cannot encode %s: %s field", path, t.Kind())
}

// appendEnvelope appends env's blob to buf.
func appendEnvelope(buf []byte, env *envelope) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, resultLayout[:]...)
	buf = binary.AppendUvarint(buf, uint64(env.Schema))
	for _, s := range [...]string{env.Key.Spec, env.Key.Kernel, env.Key.Workload, env.Key.Options} {
		buf = appendString(buf, s)
	}
	return appendValue(buf, reflect.ValueOf(&env.Result).Elem())
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendValue(buf, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = appendValue(buf, v.Index(i))
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

// decodeResult decodes the result of a blob probed under schema and
// key. It never panics: every length is bounded by the bytes that
// remain, and any malformed input is an error. errMagic and errLayout
// report a blob of another format or layout. The blob's schema and key
// strings are compared in place, without copying them out, and a blob
// of another schema or key fails with errStale before its result is
// decoded.
func decodeResult(data []byte, schema int, key Key) (sim.Result, error) {
	d, err := openBlob(data)
	if err != nil {
		return sim.Result{}, err
	}
	if d.schema() != schema || !d.match(key.Spec) || !d.match(key.Kernel) ||
		!d.match(key.Workload) || !d.match(key.Options) {
		if d.bad {
			return sim.Result{}, errShort
		}
		return sim.Result{}, errStale
	}
	var res sim.Result
	if err := d.result(&res); err != nil {
		return sim.Result{}, err
	}
	return res, nil
}

// openBlob checks data's magic number and layout digest and returns a
// decoder positioned at the schema version.
func openBlob(data []byte) (decoder, error) {
	if len(data) < len(magic) || [len(magic)]byte(data) != magic {
		return decoder{}, errMagic
	}
	data = data[len(magic):]
	if len(data) < layoutLen || [layoutLen]byte(data) != resultLayout {
		return decoder{}, errLayout
	}
	return decoder{data: data[layoutLen:]}, nil
}

// decoder consumes data; after the first malformed field it sets bad
// and every later read returns a zero value.
type decoder struct {
	data []byte
	bad  bool
}

func (d *decoder) fail() {
	d.bad = true
	d.data = nil
}

// uvarint reads a minimally encoded uvarint: a longer encoding of the
// same value ends in a zero byte, and would not re-encode to itself.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.data)
	if n <= 0 || (n > 1 && d.data[n-1] == 0) {
		d.fail()
		return 0
	}
	d.data = d.data[n:]
	return x
}

// varint reads a zigzag varint, which is a uvarint underneath.
func (d *decoder) varint() int64 {
	ux := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (d *decoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.data)) {
		d.fail()
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// match reads a string and reports whether it equals s, without
// copying it out of the blob.
func (d *decoder) match(s string) bool {
	n := d.uvarint()
	if d.bad || n != uint64(len(s)) || n > uint64(len(d.data)) || string(d.data[:n]) != s {
		return false
	}
	d.data = d.data[n:]
	return true
}

func (d *decoder) schema() int {
	x := d.uvarint()
	if x > math.MaxInt32 {
		d.fail()
		return 0
	}
	return int(x)
}

// result decodes the sim.Result that ends the blob.
func (d *decoder) result(res *sim.Result) error {
	d.value(reflect.ValueOf(res).Elem())
	switch {
	case d.bad:
		return errShort
	case len(d.data) > 0:
		return errExtra
	}
	return nil
}

func (d *decoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField() && !d.bad; i++ {
			d.value(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len() && !d.bad; i++ {
			d.value(v.Index(i))
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
