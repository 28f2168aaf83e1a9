package rescache

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"heteromem/internal/sim"
)

// fillLeaves sets every leaf under v to a value distinct from every
// other leaf's (n counts leaves) and from the zero value. Unsigned
// leaves get values wide enough for multi-byte varints, signed leaves
// alternate sign. It fails the test on any kind the blob codec cannot
// encode, so a new sim.Result field of such a kind is caught here, not
// dropped from the blob.
func fillLeaves(t *testing.T, v reflect.Value, path string, n *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), path+"[]", n)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		x := *n << (*n % 57)
		if v.OverflowUint(x) {
			x = *n
		}
		v.SetUint(x)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		x := int64(*n) << (*n % 50)
		if *n%2 == 1 {
			x = -x
		}
		if v.OverflowInt(x) {
			x = int64(*n)
		}
		v.SetInt(x)
	case reflect.String:
		*n++
		v.SetString(strings.Repeat("é", int(*n%5)) + path)
	default:
		t.Fatalf("sim.Result%s is a %s: the result blob codec cannot encode it", path, v.Kind())
	}
}

// leavesOf lists the settable leaves under v, the integers and strings
// a reflection walk reaches.
func leavesOf(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, leavesOf(v.Field(i))...)
		}
		return out
	case reflect.Array:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, leavesOf(v.Index(i))...)
		}
		return out
	}
	return []reflect.Value{v}
}

// TestCodecCoversEveryResultField sets every leaf of sim.Result to a
// distinct value and requires the blob round trip to reproduce it
// exactly, in the bytes the reference reflection walk writes. Then it
// perturbs each leaf a reflection walk reaches, one at a time: the blob
// must change and decode to the perturbed result, so a field the plan
// skips fails here. A field of a kind the codec cannot encode (map,
// slice, float, pointer, bool, unexported) fails here and in layoutErr.
func TestCodecCoversEveryResultField(t *testing.T) {
	if layoutErr != nil {
		t.Fatal(layoutErr)
	}
	env := envelope{Schema: SchemaVersion, Key: Key{Spec: "s", Kernel: "k", Workload: "w", Options: "o"}}
	var leaves uint64
	fillLeaves(t, reflect.ValueOf(&env.Result).Elem(), "", &leaves)
	if leaves < 60 {
		t.Fatalf("walked only %d leaves of sim.Result", leaves)
	}
	if n := len(resultPlan.leaves); n != int(leaves) {
		t.Fatalf("plan has %d leaves, a reflection walk %d", n, leaves)
	}
	blob := appendEnvelope(nil, &env)
	header := len(appendEnvelope(nil, &envelope{Schema: env.Schema, Key: env.Key})) - len(resultPlan.append(nil, &sim.Result{}))
	if ref := referenceAppendResult(nil, &env.Result); !bytes.Equal(blob[header:], ref) {
		t.Fatalf("plan encoding differs from the reference walk:\n plan %x\n  ref %x", blob[header:], ref)
	}
	got, err := decodeEnvelope(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, env)
	}
	if again := appendEnvelope(nil, &got); !bytes.Equal(again, blob) {
		t.Fatal("re-encoding is not byte-identical")
	}

	root := reflect.ValueOf(&env.Result).Elem()
	for i, v := range leavesOf(root) {
		if off := v.UnsafeAddr() - root.UnsafeAddr(); resultPlan.leaves[i].off != off {
			t.Fatalf("leaf %d (%s): plan offset %d, field offset %d", i, resultPlan.leaves[i].path, resultPlan.leaves[i].off, off)
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() ^ 1)
		default:
			v.SetUint(v.Uint() ^ 1)
		}
		perturbed := appendEnvelope(nil, &env)
		if bytes.Equal(perturbed, blob) {
			t.Errorf("leaf %d (%s): perturbing it leaves the blob unchanged", i, resultPlan.leaves[i].path)
		}
		if got, err := decodeEnvelope(perturbed); err != nil || !reflect.DeepEqual(got, env) {
			t.Errorf("leaf %d (%s): perturbed blob decodes to %+v, %v", i, resultPlan.leaves[i].path, got.Result, err)
		}
		v.Set(old)
	}
}

// TestPlanNarrowIntegers runs the plan over integers narrower than 64
// bits, which sim.Result does not have today: each leaf takes its
// extremes and the values just past them, and the plan's decoder must
// accept and reject exactly what the reference reflection decoder does,
// decoding to the same value. A value past an extreme must be rejected.
func TestPlanNarrowIntegers(t *testing.T) {
	type narrow struct {
		U8  uint8
		I8  int8
		U16 uint16
		I16 int16
		U32 uint32
		I32 int32
		A   [2]int8
		S   string
	}
	p, err := planOf[narrow](nil)
	if err != nil {
		t.Fatal(err)
	}
	edges := map[reflect.Kind][][2]int64{ // value, 1 if it fits
		reflect.Uint8:  {{0, 1}, {math.MaxUint8, 1}, {math.MaxUint8 + 1, 0}},
		reflect.Uint16: {{math.MaxUint16, 1}, {math.MaxUint16 + 1, 0}},
		reflect.Uint32: {{math.MaxUint32, 1}, {math.MaxUint32 + 1, 0}},
		reflect.Int8:   {{math.MinInt8, 1}, {math.MaxInt8, 1}, {math.MinInt8 - 1, 0}, {math.MaxInt8 + 1, 0}},
		reflect.Int16:  {{math.MinInt16, 1}, {math.MaxInt16, 1}, {math.MinInt16 - 1, 0}, {math.MaxInt16 + 1, 0}},
		reflect.Int32:  {{math.MinInt32, 1}, {math.MaxInt32, 1}, {math.MinInt32 - 1, 0}, {math.MaxInt32 + 1, 0}},
	}
	for i, l := range p.leaves {
		for _, e := range edges[l.kind] {
			var data []byte
			for j, m := range p.leaves {
				switch {
				case m.kind == reflect.String:
					data = appendString(data, "s")
				case j != i:
					data = append(data, 0)
				case m.kind >= reflect.Uint:
					data = binary.AppendUvarint(data, uint64(e[0]))
				default:
					data = binary.AppendVarint(data, e[0])
				}
			}
			var got, want narrow
			d := decoder{data: data}
			p.decode(&d, &got, "")
			ref := decoder{data: data}
			ref.referenceValue(reflect.ValueOf(&want).Elem())
			switch {
			case d.bad != ref.bad:
				t.Errorf("%s = %d: plan rejects %v, reference rejects %v", l.path, e[0], d.bad, ref.bad)
			case d.bad != (e[1] == 0):
				t.Errorf("%s = %d: rejected %v, want %v", l.path, e[0], d.bad, e[1] == 0)
			case !d.bad && got != want:
				t.Errorf("%s = %d: plan decodes %+v, reference %+v", l.path, e[0], got, want)
			case !d.bad && !bytes.Equal(p.append(nil, &got), data):
				t.Errorf("%s = %d: does not re-encode to its bytes", l.path, e[0])
			}
		}
	}
}

// layoutDigest digests t's layout, as resultLayout digests sim.Result's.
func layoutDigest(t reflect.Type) ([layoutLen]byte, error) {
	var l layout
	err := l.add(t, 0, t.Name(), true, true)
	return l.digest(), err
}

// TestLayoutDigest pins what the layout digest reacts to: any change
// to a leaf's path or kind changes it, and a kind the codec cannot
// encode is an error naming the field.
func TestLayoutDigest(t *testing.T) {
	type inner struct{ A [2]uint64 }
	type base struct {
		N uint64
		S string
		I inner
	}
	want, err := layoutDigest(reflect.TypeFor[base]())
	if err != nil {
		t.Fatal(err)
	}
	type withArrays struct {
		A [3][2]struct {
			X int64
			S string
		}
		E [0]uint32
		N uint8
	}
	// The plan's digest is the reference walk's on every layout, so the
	// digest of sim.Result, and every blob's header, is unchanged.
	for _, typ := range []reflect.Type{reflect.TypeFor[sim.Result](), reflect.TypeFor[base](), reflect.TypeFor[withArrays]()} {
		got, err := layoutDigest(typ)
		ref, rerr := referenceLayoutDigest(typ)
		if err != nil || rerr != nil || got != ref {
			t.Errorf("%v: layout digest %x (%v), reference %x (%v)", typ, got, err, ref, rerr)
		}
	}
	if ref, _ := referenceLayoutDigest(reflect.TypeFor[sim.Result]()); resultLayout != ref {
		t.Errorf("resultLayout %x, reference %x", resultLayout, ref)
	}
	type renamed struct {
		M uint64
		S string
		I inner
	}
	type retyped struct {
		N int64
		S string
		I inner
	}
	type reordered struct {
		S string
		N uint64
		I inner
	}
	type resized struct {
		N uint64
		S string
		I struct{ A [3]uint64 }
	}
	type grown struct {
		N, X uint64
		S    string
		I    inner
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[renamed](), reflect.TypeFor[retyped](), reflect.TypeFor[reordered](),
		reflect.TypeFor[resized](), reflect.TypeFor[grown](),
	} {
		got, err := layoutDigest(typ)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("%v has the same layout digest as %v", typ, reflect.TypeFor[base]())
		}
	}

	type withMap struct{ M map[string]int }
	type withSlice struct{ S []uint64 }
	type withFloat struct{ F float64 }
	type withPointer struct{ P *uint64 }
	type withBool struct{ B bool }
	type withUnexported struct{ n uint64 }
	for _, typ := range []reflect.Type{
		reflect.TypeFor[withMap](), reflect.TypeFor[withSlice](), reflect.TypeFor[withFloat](),
		reflect.TypeFor[withPointer](), reflect.TypeFor[withBool](), reflect.TypeFor[withUnexported](),
	} {
		_, err := layoutDigest(typ)
		if err == nil {
			t.Errorf("%v: no error for a field the codec cannot encode", typ)
			continue
		}
		if _, rerr := referenceLayoutDigest(typ); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%v: error %q, reference %v", typ, err, rerr)
		}
		if name := typ.Field(0).Name; !strings.Contains(err.Error(), "."+name) {
			t.Errorf("%v: error %q does not name field %s", typ, err, name)
		}
	}
}

// TestDecodeRejectsMalformedBlobs feeds the decoder every truncation
// of a real blob, trailing bytes, an overlong varint, an oversized
// string length and a blob of the JSON-envelope format: each must be
// an error, never a panic and never a result.
func TestDecodeRejectsMalformedBlobs(t *testing.T) {
	blob := appendEnvelope(nil, &envelope{Schema: SchemaVersion, Key: testKey("m"), Result: testResult(1 << 40)})
	for n := 0; n < len(blob); n++ {
		if _, err := decodeEnvelope(blob[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(blob))
		}
		if _, err := decodeResult(blob[:n], SchemaVersion, testKey("m")); err == nil {
			t.Fatalf("probe decoded a truncation to %d of %d bytes", n, len(blob))
		}
	}
	if _, err := decodeResult(append(bytes.Clone(blob), 0), SchemaVersion, testKey("m")); !errors.Is(err, errExtra) {
		t.Fatalf("probe of a trailing byte: err = %v, want %v", err, errExtra)
	}
	if _, err := decodeEnvelope(append(bytes.Clone(blob), 0)); !errors.Is(err, errExtra) {
		t.Fatalf("trailing byte: err = %v, want %v", err, errExtra)
	}

	header := len(magic) + layoutLen
	overlong := append(bytes.Clone(blob[:header]), 0x82, 0x00) // schema 2 in two bytes
	overlong = append(overlong, blob[header+1:]...)
	if _, err := decodeEnvelope(overlong); !errors.Is(err, errShort) {
		t.Fatalf("overlong varint: err = %v, want %v", err, errShort)
	}
	huge := binary.AppendUvarint(bytes.Clone(blob[:header+1]), 1<<62) // Key.Spec length
	if _, err := decodeEnvelope(huge); !errors.Is(err, errShort) {
		t.Fatalf("oversized string length: err = %v, want %v", err, errShort)
	}
	if _, err := decodeEnvelope(v1Blob(t, testKey("m"), testResult(1))); !errors.Is(err, errMagic) {
		t.Fatalf("JSON envelope: err = %v, want %v", err, errMagic)
	}
}

// v1Blob is a blob in the JSON-envelope format of schema version 1.
func v1Blob(t *testing.T, key Key, res sim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(map[string]any{"schema": 1, "key": key, "result": res})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestStaleLayoutMissesAndIsRewritten stands in for a change to
// sim.Result's fields: a blob written under another layout digest is a
// counted miss, neither corrupt nor a hit, and the next Put rewrites it
// so the following probe hits.
func TestStaleLayoutMissesAndIsRewritten(t *testing.T) {
	dir := t.TempDir()
	k, res := testKey("layout"), testResult(5)
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(k, res); err != nil {
		t.Fatal(err)
	}
	path := s1.blobPath(k.Digest())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)] ^= 0xff // another layout digest
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("blob of another layout served as a hit")
	}
	if st := s2.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 clean miss", st)
	}
	if err := s2.Put(k, res); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s3.Get(k); !ok || got != res {
		t.Fatalf("after rewrite: Get = %+v, %v", got, ok)
	}
	if st := s3.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("after rewrite: stats = %+v", st)
	}
}

// TestJSONStoreRefillsOnce opens a directory holding a store of the
// JSON-envelope format (v1/<dd>/<digest>.json): its entries are plain
// misses — not corrupt — and refill once under the current version.
func TestJSONStoreRefillsOnce(t *testing.T) {
	dir := t.TempDir()
	k, res := testKey("v1"), testResult(13)
	digest := k.Digest()
	old := filepath.Join(dir, "v1", digest[:2], digest+".json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, v1Blob(t, k, res), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("JSON-envelope entry served as a hit")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want one plain miss", st)
	}
	if err := s.Put(k, res); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fresh.Get(k); !ok || got != res {
		t.Fatalf("after refill: Get = %+v, %v", got, ok)
	}
	if v := fmt.Sprintf("v%d", SchemaVersion); filepath.Ext(fresh.blobPath(digest)) != ".bin" || !strings.Contains(fresh.blobPath(digest), v) {
		t.Fatalf("blob path %s, want %s/<dd>/<digest>.bin", fresh.blobPath(digest), v)
	}
}

// BenchmarkDecodeResult prices decoding one blob as a probe does: the
// header, the schema and key compared in place, and every leaf of a
// sim.Result whose integer leaves all hold distinct, multi-byte values.
// In "sweep" the strings are those a sweep's blob holds: the key's
// kernel and names from the simulator's fixed sets, which decode
// without a copy, and a system name, which is copied. In "other-names"
// every string is one the decoder has no copy of.
func BenchmarkDecodeResult(b *testing.B) {
	env := envelope{Schema: SchemaVersion, Key: testKey("bench")}
	var leaves uint64
	fillLeaves(&testing.T{}, reflect.ValueOf(&env.Result).Elem(), "", &leaves)
	other := appendEnvelope(nil, &env)
	env.Result.Kernel = env.Key.Kernel
	env.Result.MemTech = "hbm"
	env.Result.Translation = "xlat-shared-2m"
	env.Result.FabricName = "pci-aperture"
	sweep := appendEnvelope(nil, &env)
	for _, bc := range []struct {
		name string
		blob []byte
	}{{"sweep", sweep}, {"other-names", other}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeResult(bc.blob, SchemaVersion, env.Key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeReusesNames pins what BenchmarkDecodeResult's "sweep" blob
// allocates: its system name and nothing else. Every string a sim.Result
// of the simulator's fixed sets holds decodes to the set's own string.
func TestDecodeReusesNames(t *testing.T) {
	key := testKey("names")
	for path, names := range resultNames() {
		found := false
		for _, l := range resultPlan.leaves {
			found = found || l.path == path && l.kind == reflect.String && len(l.names) == len(names)
		}
		if !found || len(names) == 0 {
			t.Errorf("names %q: no string leaf of sim.Result at %s carries them", names, path)
		}
	}
	res := testResult(3)
	res.FabricName = "memctrl"
	blob := appendEnvelope(nil, &envelope{Schema: SchemaVersion, Key: key, Result: res})
	allocs := testing.AllocsPerRun(100, func() {
		got, err := decodeResult(blob, SchemaVersion, key)
		if err != nil || got != res {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("decoding allocated %v times, want at most 1 (the system name)", allocs)
	}
}
