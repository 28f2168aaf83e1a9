package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromem/internal/sim"
)

// probe opens a fresh store on dir and probes k once.
func probe(t *testing.T, dir string, k Key) (sim.Result, bool, Stats) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := s.Get(k)
	return res, ok, s.Stats()
}

// TestBlobReadEdgeCases covers what can sit at a blob's path. Each probe
// is a hit with the exact result, or a miss counted as before the raw
// read path: a file that is read but does not decode is Corrupt and
// counts its bytes; a path that cannot be read is a plain miss.
func TestBlobReadEdgeCases(t *testing.T) {
	result := func(system string) sim.Result {
		res := testResult(7)
		res.System = system
		return res
	}
	put := func(t *testing.T, dir string, k Key, system string) string {
		t.Helper()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, result(system)); err != nil {
			t.Fatal(err)
		}
		return s.blobPath(k.Digest())
	}

	t.Run("larger than the read buffer", func(t *testing.T) {
		dir, k := t.TempDir(), testKey("big")
		long := "long" + strings.Repeat("x", 3*blobBufLen)
		path := put(t, dir, k, long)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() <= 2*blobBufLen {
			t.Fatalf("blob is %d bytes, want more than twice the %d B buffer", info.Size(), blobBufLen)
		}
		res, ok, st := probe(t, dir, k)
		if !ok || res != result(long) {
			t.Fatalf("Get = %v hit, System of %d bytes; want the exact result", ok, len(res.System))
		}
		if st.DiskHits != 1 || st.BytesRead != uint64(info.Size()) {
			t.Fatalf("stats = %+v, want one disk hit reading %d bytes", st, info.Size())
		}
	})

	t.Run("exactly the read buffer", func(t *testing.T) {
		// A blob that fills the buffer takes a second read to find its end.
		dir, k := t.TempDir(), testKey("fit")
		name := strings.Repeat("y", 200)
		for {
			path := put(t, dir, k, name)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == blobBufLen {
				break
			}
			if info.Size() > blobBufLen {
				t.Fatalf("blob grew past %d bytes without matching it", blobBufLen)
			}
			name += strings.Repeat("y", blobBufLen-int(info.Size()))
		}
		if res, ok, st := probe(t, dir, k); !ok || res != result(name) || st.BytesRead != blobBufLen {
			t.Fatalf("hit %v, stats %+v; want the exact result, reading %d bytes", ok, st, blobBufLen)
		}
	})

	t.Run("empty file", func(t *testing.T) {
		dir, k := t.TempDir(), testKey("empty")
		path := put(t, dir, k, "sys")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, st := probe(t, dir, k)
		if ok || st.Misses != 1 || st.Corrupt != 1 || st.BytesRead != 0 {
			t.Fatalf("hit %v, stats %+v; want one corrupt miss reading 0 bytes", ok, st)
		}
	})

	t.Run("directory", func(t *testing.T) {
		dir, k := t.TempDir(), testKey("dir")
		path := put(t, dir, k, "sys")
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		_, ok, st := probe(t, dir, k)
		if ok || st.Misses != 1 || st.Corrupt != 0 || st.BytesRead != 0 {
			t.Fatalf("hit %v, stats %+v; want one plain miss", ok, st)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		_, ok, st := probe(t, t.TempDir(), testKey("missing"))
		if ok || st.Misses != 1 || st.Corrupt != 0 || st.BytesRead != 0 {
			t.Fatalf("hit %v, stats %+v; want one plain miss", ok, st)
		}
	})

	t.Run("key differs", func(t *testing.T) {
		for _, other := range []Key{
			{Spec: "sha256:other", Kernel: "reduction", Workload: "wkey"},
			{Spec: "sha256:key", Kernel: "dct", Workload: "wkey"},
			{Spec: "sha256:key", Kernel: "reduction", Workload: "wkeY"},
			{Spec: "sha256:key", Kernel: "reduction", Workload: "wkey", Options: "nocoalesce"},
			{Spec: "sha256:ke", Kernel: "reduction", Workload: "wkey"},
		} {
			dir, k := t.TempDir(), testKey("key")
			data, err := os.ReadFile(put(t, dir, other, "sys"))
			if err != nil {
				t.Fatal(err)
			}
			path := put(t, dir, k, "sys")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, st := probe(t, dir, k)
			if ok || st.Misses != 1 || st.Corrupt != 1 || st.BytesRead != uint64(len(data)) {
				t.Fatalf("blob of %+v: hit %v, stats %+v; want one corrupt miss reading %d bytes", other, ok, st, len(data))
			}
		}
	})
}

// TestStoreOfEarlierLayoutFormulasHits lays a store out the way the
// store did before blob paths were concatenated and digests written by
// hand: each key's digest is the sha256 of json.Marshal(key), and its
// blob sits at filepath.Join(dir, "v<schema>", digest[:2], digest+".bin").
// Every probe of a fresh store on it must be a disk hit.
func TestStoreOfEarlierLayoutFormulasHits(t *testing.T) {
	dir := t.TempDir()
	keys := []Key{
		testKey("1"),
		{Spec: "sha256:2", Kernel: "matrix-mul", Workload: "w2", Options: "hier:0123456789abcdef,nocoalesce"},
		{Spec: "sha256:<&>", Kernel: "k\"\\", Workload: "w \x01", Options: "loc:é"},
		{},
	}
	for i, k := range keys {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		digest := hex.EncodeToString(sum[:])
		path := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion), digest[:2], digest+".bin")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, appendEnvelope(nil, &envelope{Schema: SchemaVersion, Key: k, Result: testResult(uint64(i))}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if res, ok := s.Get(k); !ok || res != testResult(uint64(i)) {
			t.Errorf("key %+v: hit %v, result %+v", k, ok, res)
		}
	}
	if st := s.Stats(); st.DiskHits != uint64(len(keys)) || st.Misses != 0 {
		t.Fatalf("stats = %+v, want %d disk hits", st, len(keys))
	}
}

// FuzzKeyDigest checks the hand-written digest against its definition:
// for any four strings, Digest is the hex sha256 of json.Marshal(key),
// whether it took the hand-written path or fell back to json.Marshal.
// The raw sum the store addresses blobs by must hex-encode to
// Digest, NewKey must carry the same sum, and the relative path a read
// builds on its stack must be the tail of the blob's full path.
func FuzzKeyDigest(f *testing.F) {
	f.Add("sha256:abc", "reduction", "0123", "")
	f.Add("<", "k", "w", "")
	f.Add("s", "&", "w", "")
	f.Add("s", "k", ">", "")
	f.Add(`"`, "k", "w", "o")
	f.Add("s", `\`, "w", "")
	f.Add("s", "k", "\x00", "")
	f.Add("s", "k", "w", "\x1f")
	f.Add("\x7f", "k", "w", "")
	f.Add("s", "\xff\xfe", "w", "")
	f.Add("s", "k", "\u2028", "")
	f.Add("s", "k", "w", "loc:é")
	f.Add("", "", "", "")
	f.Fuzz(func(t *testing.T, spec, kernel, workload, options string) {
		k := Key{Spec: spec, Kernel: kernel, Workload: workload, Options: options}
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		digest := k.Digest()
		if want := hex.EncodeToString(sum[:]); digest != want {
			t.Fatalf("Digest(%+q) = %s, want %s (sha256 of %s)", k, digest, want, data)
		}
		raw := k.sum256()
		if hex.EncodeToString(raw[:]) != digest {
			t.Fatalf("raw sum %x does not encode to Digest %s", raw, digest)
		}
		if nk := NewKey(spec, kernel, workload, options); nk.sum != raw || nk.Digest() != digest {
			t.Fatalf("NewKey carries sum %x, want %x", nk.sum, raw)
		}
		var buf [relPathLen]byte
		rel := filepath.FromSlash(string(appendRelPath(buf[:0], &raw)))
		if path := (&blobs{prefix: "v3" + string(filepath.Separator)}).blobPath(digest); len(rel) != relPathLen ||
			!strings.HasSuffix(path, string(filepath.Separator)+rel) {
			t.Fatalf("relative path %q is not the tail of %q", rel, path)
		}
	})
}

// BenchmarkGetDiskHit prices a disk hit: the key's sum, the blob's
// read through the store's directory and its decode. Every probe reads
// the disk.
func BenchmarkGetDiskHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = testKey(fmt.Sprint(i))
		if err := s.Put(keys[i], testResult(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
