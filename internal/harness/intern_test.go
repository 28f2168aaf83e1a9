package harness

import (
	"sync"
	"testing"
)

func TestInternProgramSharesOneInstance(t *testing.T) {
	a, fa, err := internProgram("reduction")
	if err != nil {
		t.Fatal(err)
	}
	b, fb, err := internProgram("reduction")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("internProgram returned distinct instances for one kernel")
	}
	if fa != fb || fa != WorkloadFingerprint(a) {
		t.Fatalf("interned fingerprints %s, %s; WorkloadFingerprint %s", fa, fb, WorkloadFingerprint(a))
	}
	if _, _, err := internProgram("no-such-kernel"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestInternProgramConcurrent(t *testing.T) {
	const workers = 16
	got := make([]interface{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, _, err := internProgram("convolution")
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = p
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d saw a different interned program", w)
		}
	}
}
