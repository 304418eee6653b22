package freelist

import (
	"sync"
	"testing"
)

// TestTightestFit: a request takes the smallest released slice that holds
// it from its own size class or the next, never one four or more times its
// size, and a miss is nil.
func TestTightestFit(t *testing.T) {
	var l List[float32]
	for _, c := range []int{1000, 700, 640, 2047, 4096} {
		l.Put(make([]float32, c))
	}
	for _, tc := range []struct{ n, cap int }{
		{600, 640}, // class 9 (512..1023) holds 640, 700 and 1000
		{650, 700},
		{513, 1000},
		{513, 2047}, // class 9 is empty: the next class up
		{1024, 0},   // 4096 is class 12, two classes up: a miss
		{0, 0},
	} {
		s := l.Get(tc.n)
		if tc.cap == 0 {
			if s != nil {
				t.Errorf("Get(%d) = a slice of capacity %d, want a miss", tc.n, cap(s))
			}
			continue
		}
		if len(s) != tc.n || cap(s) != tc.cap {
			t.Errorf("Get(%d) = len %d cap %d, want len %d cap %d", tc.n, len(s), cap(s), tc.n, tc.cap)
		}
	}
}

// TestGetLeavesContents: Get hands a slice back as its last owner left it
// (the caller clears it when it needs zeroes), including the elements past
// the length it was put with.
func TestGetLeavesContents(t *testing.T) {
	var l List[int]
	s := make([]int, 3, 8)
	copy(s[:8], []int{1, 2, 3, 4, 5, 6, 7, 8})
	l.Put(s)
	l.Put(nil)
	got := l.Get(8)
	if len(got) != 8 || &got[0] != &s[0] {
		t.Fatalf("Get(8) = len %d, not the slice put", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("element %d = %d, want %d", i, v, i+1)
		}
	}
	if l.Get(1) != nil {
		t.Error("a nil Put was kept")
	}
}

// TestConcurrentGetPut: goroutines sharing one list never get the same
// slice twice at once. Run it under -race.
func TestConcurrentGetPut(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				n := 64 + round%7
				s := l.Get(n)
				if s == nil {
					s = make([]int, n)
				}
				for i := range s {
					s[i] = w
				}
				for i, v := range s {
					if v != w {
						t.Errorf("worker %d: element %d changed to %d under it", w, i, v)
						return
					}
				}
				l.Put(s)
			}
		}(w)
	}
	wg.Wait()
}
