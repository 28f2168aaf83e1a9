package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"heteromem/internal/comm"
	"heteromem/internal/memtech"
	"heteromem/internal/sim"
	"heteromem/internal/xlat"
)

// A blob is a header — magic, the layout digest, the schema version and
// the four key strings — followed by the sim.Result's leaves in field
// order: unsigned integers as uvarints, signed integers as zigzag
// varints, strings as a uvarint length and the bytes, arrays and structs
// element by element. The encoding is canonical: the decoder accepts
// only minimal varints and no trailing bytes, so a blob it accepts
// re-encodes to the same bytes.
//
// The encoder, the decoder and the layout digest all walk one plan of
// sim.Result's leaves, built once per process from its reflect.Type. A
// leaf is read and written through its byte offset in the result, so a
// hit makes no reflect.Value; the offsets never leave this file. A
// string leaf that holds one of a fixed set of names decodes to that
// name without allocating a copy of it (see resultNames).

// magic opens every blob.
var magic = [4]byte{'H', 'M', 'R', 'B'}

// layoutLen is the length of the layout digest in the header.
const layoutLen = 8

// resultPlan is sim.Result's plan. resultLayout is the digest of its
// layout: every leaf's field path and kind. Adding, removing,
// reordering, renaming or retyping a field changes it, so blobs written
// before the change read back as stale misses instead of decoding into
// the wrong fields. layoutErr is set if sim.Result has a field the plan
// cannot encode.
var (
	resultPlan, layoutErr = planOf[sim.Result](resultNames())
	resultLayout          = resultPlan.digest()
)

// resultNames lists, by leaf path, the simulator's fixed name sets that
// a sim.Result's string fields take their values from: the memory
// technologies, the fabrics and the labels of the translation presets.
// The names do not enter the layout digest or the blob; they only spare
// a decode the copy of a string it already has.
func resultNames() map[string][]string {
	var memTechs, fabrics, translations []string
	for _, k := range memtech.AllKinds() {
		memTechs = append(memTechs, k.String())
	}
	for _, k := range comm.AllKinds() {
		fabrics = append(fabrics, k.String())
	}
	for _, name := range xlat.Presets() {
		translations = append(translations, xlat.MustParsePreset(name).Label())
	}
	return map[string][]string{
		"Result.MemTech":     memTechs,
		"Result.FabricName":  fabrics,
		"Result.Translation": translations,
	}
}

var (
	errMagic  = errors.New("not a result blob")
	errLayout = errors.New("written under another sim.Result layout")
	errShort  = errors.New("truncated or malformed blob")
	errExtra  = errors.New("trailing bytes after the result")
	errStale  = errors.New("written under another schema or key")
)

// layout is a struct type's leaves in encoding order, with the text its
// digest hashes: one line of path and kind per leaf, each array
// described once, by its first element.
type layout struct {
	leaves []leaf
	text   []byte
	names  map[string][]string // given to the string leaves, by path
}

// leaf is one integer or string field, off bytes into the value. Its
// path names it from the type down, an array by its length
// ("Result.Mem.L1Hits[2]"), so the elements of an array share a path.
// names, for a string leaf, are the values decode reuses.
type leaf struct {
	off   uintptr
	kind  reflect.Kind
	size  uintptr
	path  string
	names []string
}

// plan is the layout of T, which encodes and decodes T's values.
type plan[T any] struct{ layout }

// planOf builds T's plan, giving each string leaf the names listed
// under its path. A field the blob cannot hold — unexported, or a map,
// slice, float, pointer, bool or other kind — is an error naming its
// path, and ends the plan there.
func planOf[T any](names map[string][]string) (*plan[T], error) {
	p := &plan[T]{}
	t := reflect.TypeFor[T]()
	p.names = names
	return p, p.add(t, 0, t.Name(), true, true)
}

// add appends the leaves of a t at offset off. encode and describe say
// whether they go into the blob and into the digested text: an array's
// later elements are encoded but not described, and an empty array is
// described but not encoded.
func (l *layout) add(t reflect.Type, off uintptr, path string, encode, describe bool) error {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("rescache: cannot encode %s.%s: unexported field", path, f.Name)
			}
			if err := l.add(f.Type, off+f.Offset, path+"."+f.Name, encode, describe); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		elem, path := t.Elem(), fmt.Sprintf("%s[%d]", path, t.Len())
		if t.Len() == 0 {
			return l.add(elem, off, path, false, describe)
		}
		for i := 0; i < t.Len(); i++ {
			if err := l.add(elem, off+uintptr(i)*elem.Size(), path, encode, describe && i == 0); err != nil {
				return err
			}
		}
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.String:
		if describe {
			l.text = fmt.Appendf(l.text, "%s %s\n", path, t.Kind())
		}
		if encode {
			l.leaves = append(l.leaves, leaf{off: off, kind: t.Kind(), size: t.Size(), path: path, names: l.names[path]})
		}
		return nil
	}
	return fmt.Errorf("rescache: cannot encode %s: %s field", path, t.Kind())
}

func (l *layout) digest() [layoutLen]byte {
	sum := sha256.Sum256(l.text)
	return [layoutLen]byte(sum[:layoutLen])
}

// append appends v's leaves to buf.
func (p *plan[T]) append(buf []byte, v *T) []byte {
	base := unsafe.Pointer(v)
	for i := range p.leaves {
		l := &p.leaves[i]
		at := unsafe.Add(base, l.off)
		switch l.kind {
		case reflect.String:
			buf = appendString(buf, *(*string)(at))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			buf = binary.AppendVarint(buf, loadInt(at, l.size))
		default:
			buf = binary.AppendUvarint(buf, loadUint(at, l.size))
		}
	}
	return buf
}

// decode reads v's leaves from d, failing d at the first malformed one
// or an integer too wide for its field. A string equal to reuse or to
// one of its leaf's names is that string, not a copy.
func (p *plan[T]) decode(d *decoder, v *T, reuse string) {
	base := unsafe.Pointer(v)
	for i := range p.leaves {
		l := &p.leaves[i]
		at := unsafe.Add(base, l.off)
		ok := true
		switch l.kind {
		case reflect.String:
			*(*string)(at) = d.name(reuse, l.names)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			ok = storeInt(at, l.size, d.varint())
		default:
			ok = storeUint(at, l.size, d.uvarint())
		}
		if !ok {
			d.fail()
		}
		if d.bad {
			return
		}
	}
}

// appendEnvelope appends env's blob to buf.
func appendEnvelope(buf []byte, env *envelope) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, resultLayout[:]...)
	buf = binary.AppendUvarint(buf, uint64(env.Schema))
	for _, s := range [...]string{env.Key.Spec, env.Key.Kernel, env.Key.Workload, env.Key.Options} {
		buf = appendString(buf, s)
	}
	return resultPlan.append(buf, &env.Result)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// loadUint and loadInt read the integer of the given size at p.
// storeUint and storeInt write x there and report whether it fits; the
// decoder fails on a value that does not, whatever they wrote.
func loadUint(p unsafe.Pointer, size uintptr) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(p))
	case 2:
		return uint64(*(*uint16)(p))
	case 4:
		return uint64(*(*uint32)(p))
	}
	return *(*uint64)(p)
}

func loadInt(p unsafe.Pointer, size uintptr) int64 {
	switch size {
	case 1:
		return int64(*(*int8)(p))
	case 2:
		return int64(*(*int16)(p))
	case 4:
		return int64(*(*int32)(p))
	}
	return *(*int64)(p)
}

func storeUint(p unsafe.Pointer, size uintptr, x uint64) bool {
	switch size {
	case 1:
		*(*uint8)(p) = uint8(x)
		return x <= math.MaxUint8
	case 2:
		*(*uint16)(p) = uint16(x)
		return x <= math.MaxUint16
	case 4:
		*(*uint32)(p) = uint32(x)
		return x <= math.MaxUint32
	}
	*(*uint64)(p) = x
	return true
}

func storeInt(p unsafe.Pointer, size uintptr, x int64) bool {
	switch size {
	case 1:
		*(*int8)(p) = int8(x)
		return x == int64(int8(x))
	case 2:
		*(*int16)(p) = int16(x)
		return x == int64(int16(x))
	case 4:
		*(*int32)(p) = int32(x)
		return x == int64(int32(x))
	}
	*(*int64)(p) = x
	return true
}

// decodeResult decodes the result of a blob probed under schema and
// key. It never panics: every length is bounded by the bytes that
// remain, and any malformed input is an error. errMagic and errLayout
// report a blob of another format or layout. The blob's schema and key
// strings are compared in place, without copying them out, and a blob
// of another schema or key fails with errStale before its result is
// decoded. A result string equal to the key's kernel, or to a name of
// the simulator's fixed sets, reuses that string, so decoding a sweep's
// blob allocates only its system name.
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
	if err := d.result(&res, key.Kernel); err != nil {
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
// Most leaves of a result are small, so a one-byte value is read first.
func (d *decoder) uvarint() uint64 {
	if len(d.data) > 0 && d.data[0] < 0x80 {
		x := uint64(d.data[0])
		d.data = d.data[1:]
		return x
	}
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
	return d.name("", nil)
}

// name reads a string, returning reuse or the first of names it equals
// instead of a copy of the blob's bytes.
func (d *decoder) name(reuse string, names []string) string {
	n := d.uvarint()
	if n > uint64(len(d.data)) {
		d.fail()
		return ""
	}
	b := d.data[:n]
	d.data = d.data[n:]
	if string(b) == reuse {
		return reuse
	}
	for _, name := range names {
		if string(b) == name {
			return name
		}
	}
	return string(b)
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

// result decodes the sim.Result that ends the blob, reusing reuse for
// any string equal to it.
func (d *decoder) result(res *sim.Result, reuse string) error {
	resultPlan.decode(d, res, reuse)
	switch {
	case d.bad:
		return errShort
	case len(d.data) > 0:
		return errExtra
	}
	return nil
}
