package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSplitKernels(t *testing.T) {
	got, err := splitKernels(" reduction, ,dct ")
	if err != nil || !slices.Equal(got, []string{"reduction", "dct"}) {
		t.Fatalf("splitKernels = %q, %v; want [reduction dct]", got, err)
	}
	if _, err := splitKernels(" , "); err == nil {
		t.Error("a flag naming no kernels was accepted")
	}
	// A repeated kernel would be simulated and reported twice.
	_, err = splitKernels("reduction,dct, reduction")
	if err == nil || !strings.Contains(err.Error(), `"reduction" twice`) {
		t.Errorf("repeated kernel: err = %v, want one naming \"reduction\"", err)
	}
}
