package mapsort

import (
	"sort"
	"testing"
)

func TestKeysSorted(t *testing.T) {
	m := map[int]string{9: "i", 3: "c", 7: "g", 1: "a"}
	for run := 0; run < 20; run++ {
		got := Keys(m)
		if !sort.IntsAreSorted(got) {
			t.Fatalf("Keys returned unsorted order %v", got)
		}
		if len(got) != len(m) {
			t.Fatalf("Keys returned %d keys, want %d", len(got), len(m))
		}
	}
}

func TestKeysStringOrder(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := Keys(m)
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestKeysEmptyAndNil(t *testing.T) {
	if got := Keys(map[int]int{}); len(got) != 0 {
		t.Errorf("empty map: got %v", got)
	}
	var nilMap map[int]int
	if got := Keys(nilMap); len(got) != 0 {
		t.Errorf("nil map: got %v", got)
	}
}
