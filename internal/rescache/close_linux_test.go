package rescache

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list descriptors: %v", err)
	}
	return len(fds)
}

// TestDroppedStoresReleaseDescriptors opens several hundred disk stores,
// probes each and drops it without Close, as a caller that opens a store
// per sweep does: once the garbage collector has run, the process holds
// no more descriptors than before.
func TestDroppedStoresReleaseDescriptors(t *testing.T) {
	dir := t.TempDir()
	fill, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill.Put(testKey("kept"), testResult(1)); err != nil {
		t.Fatal(err)
	}
	fill.Close()
	before := openFDs(t)
	const stores = 400
	for range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(testKey("kept")); !ok {
			t.Fatal("disk miss on a filled store")
		}
	}
	t.Logf("%d of %d dropped stores hold a descriptor before a forced collection", openFDs(t)-before, stores)
	// Finalizers run on their own goroutine after the collection that
	// finds the stores unreachable; give them a moment.
	for try := 0; ; try++ {
		runtime.GC()
		held := openFDs(t) - before
		if held <= 0 {
			break
		}
		if try == 50 {
			t.Fatalf("%d descriptors still held after %d stores were dropped", held, stores)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStoreReadsTheDirectoryItOpened replaces a store's directory after
// Open: the store keeps reading and writing the directory it opened,
// and a store opened on the new directory sees none of it.
func TestStoreReadsTheDirectoryItOpened(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	fill, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill.Put(testKey("old"), testResult(1)); err != nil {
		t.Fatal(err)
	}
	fill.Close()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.Rename(dir, filepath.Join(root, "moved")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if res, ok := s.Get(testKey("old")); !ok || res != testResult(1) {
		t.Fatalf("hit %v: the store lost the directory it opened", ok)
	}
	if err := s.Put(testKey("late"), testResult(2)); err != nil {
		t.Fatal(err)
	}
	moved, err := Open(filepath.Join(root, "moved"))
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	if res, ok := moved.Get(testKey("late")); !ok || res != testResult(2) {
		t.Fatalf("hit %v: a write after the rename missed the directory the store opened", ok)
	}
	replaced, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replaced.Close()
	if _, ok := replaced.Get(testKey("late")); ok {
		t.Fatal("a write after the rename landed in the new directory")
	}
}
