package main

import "testing"

// TestSelfTimes checks self-time arithmetic on a hand-built span tree:
// overlapping children count once, and the parts of children outside
// their parent's interval (replays) do not count at all.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},               // root
		{ID: 2, Parent: 1, Start: 10, End: 40},    // overlaps 3
		{ID: 3, Parent: 1, Start: 30, End: 60},    // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120},   // runs past the root
		{ID: 5, Parent: 1, Start: 150, End: 170},  // replay after the root
		{ID: 6, Parent: 2, Start: 15, End: 20},    // grandchild
		{ID: 7, Parent: 2, Start: 18, End: 25},    // overlaps 6
		{ID: 8, Parent: 9, Start: 0, End: 10},     // parent not in the trace
		{ID: 10, Parent: 3, Start: 60, End: 60},   // empty
		{ID: 11, Parent: 4, Start: 100, End: 120}, // covers 4's tail
	}
	want := map[int64]int64{
		1:  100 - (50 + 10), // [10,60] and [90,100]
		2:  30 - 10,         // [15,25]
		3:  30,
		4:  30 - 20,
		5:  20,
		6:  5,
		7:  7,
		8:  10,
		10: 0,
		11: 20,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}
