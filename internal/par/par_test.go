package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{-1, 0, 1, 3, n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				visits := make([]atomic.Int32, n)
				Each(n, workers, func(i int) { visits[i].Add(1) })
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("index %d visited %d times", i, got)
					}
				}
			})
		}
	}
}

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestEachSingleWorkerRunsInOrderOnCaller pins the sequential contract:
// with one worker, fn runs in index order on the calling goroutine.
func TestEachSingleWorkerRunsInOrderOnCaller(t *testing.T) {
	caller := goroutineID()
	var order []int
	Each(100, 1, func(i int) {
		order = append(order, i)
		if g := goroutineID(); g != caller {
			t.Errorf("call %d ran on goroutine %s, want caller %s", i, g, caller)
		}
	})
	if len(order) != 100 {
		t.Fatalf("got %d calls, want 100", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d got index %d", i, got)
		}
	}
}
