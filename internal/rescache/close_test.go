package rescache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestCloseIsIdempotent closes a store twice and a nil store: none of
// them fails.
func TestCloseIsIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	var nilStore *Store
	if err := nilStore.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedStoreMissesAndLatches probes and fills a closed store: a
// key on disk misses, and Put stores nothing and latches an error for
// Err, so the key it was given misses too. Another store opened on the
// same directory after the Close may be given the closed descriptor's
// number; the closed store must not read through it.
func TestClosedStoreMissesAndLatches(t *testing.T) {
	dir := t.TempDir()
	fill, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill.Put(testKey("on-disk"), testResult(1)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, ok := s.Get(testKey("on-disk")); ok {
		t.Fatal("a closed store served a blob from disk")
	}
	if err := s.Put(testKey("new"), testResult(2)); !errors.Is(err, errClosed) {
		t.Fatalf("Put on a closed store = %v, want %v", err, errClosed)
	}
	if err := s.Err(); !errors.Is(err, errClosed) {
		t.Fatalf("Err = %v, want the latched %v", err, errClosed)
	}
	if res, ok := s.Get(testKey("new")); ok {
		t.Fatalf("a closed store served %+v for the key it was given after Close", res)
	}
	if _, ok := reopened.Get(testKey("new")); ok {
		t.Fatal("Put on a closed store wrote a blob")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 2 || st.BytesWritten != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want two misses and no disk traffic", st)
	}
}

// TestConcurrentGetPutOneDescriptor has workers probe and fill
// overlapping keys through one store, then read and write through a
// second store while it is closed, as a data-race and
// descriptor-lifetime check (run it under -race with a -count above
// one). Every hit must be the exact result of its key, and every key
// must read back from a reopened store.
func TestConcurrentGetPutOneDescriptor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 4, 48
	key := func(i int) Key { return testKey(fmt.Sprint(i)) }
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (i*(w+1) + w) % keys
				if res, ok := s.Get(key(k)); ok && res != testResult(uint64(k)) {
					errs[w] = fmt.Errorf("key %d: hit with another key's result", k)
					return
				}
				if err := s.Put(key(k), testResult(uint64(k))); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Close a second store while workers still read and write through
	// it: each call either uses the descriptor or finds the store
	// closed, and none uses it after it is released.
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range keys {
				k := (i + w*keys/workers) % keys
				if res, ok := reader.Get(key(k)); ok && res != testResult(uint64(k)) {
					errs[w] = fmt.Errorf("key %d: hit with another key's result", k)
					return
				}
				if err := reader.Put(key(k), testResult(uint64(k))); err != nil && !errors.Is(err, errClosed) {
					errs[w] = err
					return
				}
			}
		}()
	}
	close(start)
	if err := reader.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for k := range keys {
		if res, ok := fresh.Get(key(k)); !ok || res != testResult(uint64(k)) {
			t.Fatalf("key %d: hit %v on a reopened store, want its exact result", k, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
