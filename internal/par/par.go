// Package par is the module's one bounded, index-addressed worker pool.
// Every parallel stage writes result i into slot i of a slice it owns, so
// output order never depends on scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) once for every i in [0, n) and returns when all calls
// have returned. workers <= 0 selects GOMAXPROCS and the count is clamped
// to n; with one worker the calls run in index order on the caller's
// goroutine. Otherwise each worker claims the next unclaimed index until
// none remain, so fn must be safe to call concurrently for distinct i.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
