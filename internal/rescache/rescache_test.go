package rescache

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"heteromem/internal/clock"
	"heteromem/internal/sim"
)

func testKey(n string) Key {
	return Key{Spec: "sha256:" + n, Kernel: "reduction", Workload: "w" + n}
}

func testResult(n uint64) sim.Result {
	return sim.Result{
		System:        "sys",
		Kernel:        "reduction",
		MemTech:       "dram",
		Translation:   "off",
		Sequential:    clock.Duration(n),
		Parallel:      clock.Duration(2 * n),
		Communication: clock.Duration(3 * n),
	}
}

// TestDigestStable pins the key canonicalization: the digest is the
// sha256 of the key's canonical JSON, so any accidental change to field
// order, naming or encoding — which would silently orphan every existing
// cache — fails here first.
func TestDigestStable(t *testing.T) {
	k := Key{Spec: "s", Kernel: "k", Workload: "w"}
	const want = "f9fc08af05819ab596538f5279e1d7570786f0ad192fde0b4bd2a32bc35a1378"
	if got := k.Digest(); got != want {
		t.Fatalf("digest of %+v = %s, want %s", k, got, want)
	}
	if k2 := (Key{Spec: "s", Kernel: "k", Workload: "w", Options: "nocoalesce"}); k2.Digest() == want {
		t.Fatal("options did not change the digest")
	}
}

// TestOpenRequiresDirectory pins that a store is its directory: there
// is no store without one, and a nil *Store is the "no cache" value.
func TestOpenRequiresDirectory(t *testing.T) {
	if s, err := Open(""); err == nil || s != nil {
		t.Fatalf(`Open("") = store %t, error %v; want an error`, s != nil, err)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := testKey("persist"), testResult(7)
	if err := s1.Put(k, res); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s1.blobPath(k.Digest()))
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.BytesWritten != uint64(info.Size()) {
		t.Fatalf("wrote %d bytes, the blob is %d", st.BytesWritten, info.Size())
	}

	// A fresh store on the same directory reads the blob on every probe.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, ok := s2.Get(k)
		if !ok || got != res {
			t.Fatalf("probe %d: Get = %+v, %v", i, got, ok)
		}
	}
	st := s2.Stats()
	if st.DiskHits != 2 || st.Hits != 2 || st.Misses != 0 || st.BytesRead != 2*uint64(info.Size()) {
		t.Fatalf("stats = %+v, want 2 disk hits reading %d bytes each", st, info.Size())
	}
}

// TestDeletedBlobMisses deletes a blob after its Put: the store keeps
// no copy of the result, so probing the key on the same store misses.
func TestDeletedBlobMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey("deleted")
	if err := s.Put(k, testResult(5)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.blobPath(k.Digest())); err != nil {
		t.Fatal(err)
	}
	if res, ok := s.Get(k); ok {
		t.Fatalf("Get of a deleted blob = %+v, a hit", res)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want one plain miss", st)
	}
}

// TestSchemaBumpMissesCleanly simulates a schema bump: entries written
// under the old schema become clean misses (the new version directory is
// simply empty), and the store refills under the new version without
// disturbing the old blobs.
func TestSchemaBumpMissesCleanly(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := testKey("bump"), testResult(9)
	if err := old.Put(k, res); err != nil {
		t.Fatal(err)
	}

	bumped, err := open(dir, SchemaVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bumped.Get(k); ok {
		t.Fatal("stale-schema entry served as a hit")
	}
	st := bumped.Stats()
	if st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("schema bump should be a clean miss, stats = %+v", st)
	}
	if err := bumped.Put(k, res); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bumped.blobPath(k.Digest())); err != nil {
		t.Fatalf("refill under new schema: %v", err)
	}
	if _, err := os.Stat(old.blobPath(k.Digest())); err != nil {
		t.Fatalf("old-schema blob disturbed: %v", err)
	}
}

// TestStaleEnvelopeIsCorrupt covers the belt-and-braces envelope check:
// a blob whose envelope carries the wrong schema or the wrong key (a
// digest collision, or a file renamed by hand) reads as a corrupt miss.
func TestStaleEnvelopeIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	k, other := testKey("env"), testKey("other")

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(other, testResult(3)); err != nil {
		t.Fatal(err)
	}
	// Masquerade other's blob as k's: the envelope's key betrays it.
	if err := os.MkdirAll(filepath.Dir(s1.blobPath(k.Digest())), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s1.blobPath(other.Digest()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s1.blobPath(k.Digest()), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("key-mismatched blob served as a hit")
	}
	if st := s2.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt miss", st)
	}
}

// TestCorruptBlobMissesAndIsRewritten truncates a blob mid-JSON: the
// probe is a counted corrupt miss, and the next Put rewrites a
// well-formed entry.
func TestCorruptBlobMissesAndIsRewritten(t *testing.T) {
	dir := t.TempDir()
	k, res := testKey("corrupt"), testResult(11)
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
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("truncated blob served as a hit")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1", st)
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
}

// TestConcurrentRacersConverge races many goroutines putting and
// getting the same small key set (run under -race in CI): every probe
// that hits must return the keyed result, and the store must end
// well-formed on disk.
func TestConcurrentRacersConverge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const keys, workers, rounds = 4, 8, 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := uint64((w + r) % keys)
				k, want := testKey(string(rune('a'+i))), testResult(i+1)
				if err := s.Put(k, want); err != nil {
					errc <- err
					return
				}
				if got, ok := s.Get(k); ok && got != want {
					errc <- os.ErrInvalid
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		k, want := testKey(string(rune('a'+i))), testResult(i+1)
		if got, ok := fresh.Get(k); !ok || got != want {
			t.Fatalf("key %d: Get = %+v, %v; want %+v, true", i, got, ok, want)
		}
	}
	if st := fresh.Stats(); st.Corrupt != 0 {
		t.Fatalf("racers left %d corrupt blobs", st.Corrupt)
	}
}

// TestNilStore pins that a nil *Store disables caching without panics.
func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get(testKey("nil")); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(testKey("nil"), testResult(1)); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil || s.Dir() != "" {
		t.Fatal("nil store reported state")
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

func TestStatsCountersAndHitRate(t *testing.T) {
	st := Stats{Hits: 3, Misses: 1, DiskHits: 3, BytesRead: 10, BytesWritten: 20}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty HitRate != 0")
	}
	c := st.Counters()
	if c["rescache.hits"] != 3 || c["rescache.misses"] != 1 || c["rescache.bytes"] != 30 {
		t.Fatalf("counters = %v", c)
	}
	for _, gone := range []string{"rescache.mem_hits", "rescache.disk_hits"} {
		if _, ok := c[gone]; ok {
			t.Errorf("counters hold %s", gone)
		}
	}
}
